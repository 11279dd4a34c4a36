// Differential proof for the batched throughput path: Machine::run_batch's
// stage-major execution — over row-major packets, over a full-width
// ColumnBatch transpose, and through ShardCore::drain's chunked per-slot
// batches — is observationally identical to the cycle-accurate PipelineSim
// and to sequential Machine::process — every egress field of every packet
// and the full final StateStore — on every mappable algorithm in the corpus,
// across batch sizes including ones that straddle the trace length.
#include <gtest/gtest.h>

#include <algorithm>

#include "banzai/column.h"
#include "banzai/fleet.h"
#include "test_util.h"

namespace {

using algorithms::AlgorithmInfo;
using banzai::BatchView;
using banzai::ColumnBatch;
using banzai::Packet;

std::vector<Packet> make_workload(const AlgorithmInfo& alg,
                                  const banzai::Machine& machine,
                                  int num_packets, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<Packet> trace;
  trace.reserve(static_cast<std::size_t>(num_packets));
  for (int i = 0; i < num_packets; ++i) {
    std::map<std::string, banzai::Value> fields;
    alg.workload(rng, i, fields);
    Packet pkt(machine.fields().size());
    for (const auto& [k, v] : fields)
      if (machine.fields().try_id_of(k).has_value())
        pkt.set(machine.fields().id_of(k), v);
    trace.push_back(std::move(pkt));
  }
  return trace;
}

domino::CompileResult compile_least(const AlgorithmInfo& alg) {
  auto target = test_util::least_target(alg.source);
  if (!target.has_value())
    throw std::runtime_error(alg.name + ": no paper target accepts it");
  return domino::compile(alg.source, *target);
}

// Runs pkts through m in run_batch calls of at most `batch` packets, either
// in place as rows or through a full-width ColumnBatch round trip.
void run_rows(banzai::Machine& m, std::vector<Packet>& pkts,
              std::size_t batch) {
  for (std::size_t i = 0; i < pkts.size(); i += batch)
    m.run_batch(BatchView::rows(&pkts[i], std::min(batch, pkts.size() - i)));
}
void run_columns(banzai::Machine& m, std::vector<Packet>& pkts,
                 std::size_t batch) {
  ColumnBatch cols;
  for (std::size_t i = 0; i < pkts.size(); i += batch) {
    cols.gather(&pkts[i], std::min(batch, pkts.size() - i),
                m.fields().size());
    m.run_batch(BatchView::columns(cols));
    cols.scatter(&pkts[i]);
  }
}

struct BatchCase {
  std::string algorithm;
  std::size_t batch_size;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceTest, BatchMatchesPipelineAndSequential) {
  const auto& tc = GetParam();
  const AlgorithmInfo& alg = algorithms::algorithm(tc.algorithm);
  domino::CompileResult compiled = compile_least(alg);

  // Independent replicas of the compiled machine, one per execution path.
  const banzai::StateStore pristine_state = compiled.machine().state();
  banzai::Machine seq_machine = compiled.machine().clone();
  banzai::Machine pipe_machine = compiled.machine().clone();
  banzai::Machine rows_machine = compiled.machine().clone();
  banzai::Machine cols_machine = compiled.machine().clone();

  const int kPackets = 1500;
  const auto trace = make_workload(alg, compiled.machine(), kPackets, 77u);

  std::vector<Packet> seq_out;
  seq_out.reserve(trace.size());
  for (const Packet& p : trace) seq_out.push_back(seq_machine.process(p));

  banzai::PipelineSim pipe(pipe_machine);
  for (const Packet& p : trace) pipe.enqueue(p);
  pipe.drain();

  std::vector<Packet> rows_out = trace;
  run_rows(rows_machine, rows_out, tc.batch_size);
  std::vector<Packet> cols_out = trace;
  run_columns(cols_machine, cols_out, tc.batch_size);

  // One slot, one shard: the whole trace is a single slot group, which the
  // drain runs in ceil(n / batch_size) chunks.
  banzai::ShardCore core(compiled.machine(), 1, 1, tc.batch_size, {});
  std::vector<Packet> core_in = trace;
  std::vector<Packet> core_out(trace.size());
  const std::vector<std::size_t> slots(trace.size(), 0);
  core.drain(0, slots.data(), core_in.data(), core_in.size(),
             core_out.data());

  ASSERT_EQ(pipe.egress().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(pipe.egress()[i], seq_out[i]) << "pipeline, packet " << i;
    ASSERT_EQ(rows_out[i], seq_out[i]) << "rows, packet " << i;
    ASSERT_EQ(cols_out[i], seq_out[i]) << "columns, packet " << i;
    ASSERT_EQ(core_out[i], seq_out[i]) << "ShardCore, packet " << i;
  }
  EXPECT_EQ(pipe_machine.state(), seq_machine.state());
  EXPECT_EQ(rows_machine.state(), seq_machine.state());
  EXPECT_EQ(cols_machine.state(), seq_machine.state());
  EXPECT_EQ(core.slot_machine(0).state(), seq_machine.state());
  // Replicas have independent StateStores: running every path must leave
  // the prototype machine's state untouched.
  EXPECT_EQ(compiled.machine().state(), pristine_state);
}

std::vector<BatchCase> all_cases() {
  std::vector<BatchCase> cases;
  for (const auto& alg : algorithms::corpus()) {
    if (alg.paper_least_atom == "Doesn't map") continue;
    // 1 = degenerate batches; 7 leaves a ragged tail; 256 = the default.
    for (std::size_t bs : {std::size_t{1}, std::size_t{7}, std::size_t{256}})
      cases.push_back({alg.name, bs});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BatchEquivalenceTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<BatchCase>& info) {
      return info.param.algorithm + "_bs" +
             std::to_string(info.param.batch_size);
    });

TEST(ColumnBatchTest, GatherScatterRoundTripsAndPreservesExtraFields) {
  // Packets wider than the batch keep their trailing fields across a
  // round-trip; the first num_fields columns transpose faithfully.
  const std::size_t kFields = 3, kWide = 5, kN = 17;
  std::vector<Packet> pkts;
  for (std::size_t i = 0; i < kN; ++i) {
    Packet p(kWide);
    for (std::size_t f = 0; f < kWide; ++f)
      p.set(f, static_cast<banzai::Value>(100 * i + f));
    pkts.push_back(std::move(p));
  }
  const std::vector<Packet> original = pkts;

  ColumnBatch cb;
  cb.gather(pkts.data(), kN, kFields);
  EXPECT_EQ(cb.size(), kN);
  EXPECT_EQ(cb.num_fields(), kFields);
  for (std::size_t f = 0; f < kFields; ++f)
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(cb.col(f)[i], original[i].get(f)) << "col " << f << " i " << i;

  // Mutate one column, scatter back: only that field changes, and the two
  // fields beyond the batch width stay untouched.
  for (std::size_t i = 0; i < kN; ++i) cb.col(1)[i] = -1;
  cb.scatter(pkts.data());
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(pkts[i].get(0), original[i].get(0));
    EXPECT_EQ(pkts[i].get(1), -1);
    EXPECT_EQ(pkts[i].get(2), original[i].get(2));
    EXPECT_EQ(pkts[i].get(3), original[i].get(3));
    EXPECT_EQ(pkts[i].get(4), original[i].get(4));
  }
}

TEST(ColumnBatchTest, NarrowPacketsAreRejected) {
  std::vector<Packet> pkts(3, Packet(2));
  ColumnBatch cb;
  EXPECT_THROW(cb.gather(pkts.data(), pkts.size(), 4), std::invalid_argument);
  cb.gather(pkts.data(), pkts.size(), 2);
  std::vector<Packet> narrow(3, Packet(1));
  EXPECT_THROW(cb.scatter(narrow.data()), std::invalid_argument);
}

TEST(ColumnBatchTest, ReshapeReusesCapacityAcrossBatches) {
  ColumnBatch cb(4, 256);
  const banzai::Value* col0 = cb.col(0);
  cb.reshape(4, 100);  // shrink within capacity: pointers stable
  EXPECT_EQ(cb.col(0), col0);
  EXPECT_EQ(cb.size(), 100u);
  EXPECT_EQ(cb.capacity(), 256u);
}

TEST(RunBatchTest, SnapshotRestoreMidStreamOnColumnarBatches) {
  // The reshard cycle of FleetService, exercised through the columnar batch
  // entry: run half as columns, snapshot, keep running, restore, run the
  // rest — must match a sequential machine driven identically.
  const AlgorithmInfo& alg = algorithms::algorithm("flowlets");
  domino::CompileResult compiled = compile_least(alg);
  const auto trace = make_workload(alg, compiled.machine(), 600, 41u);
  const std::size_t a = 200, b = 400;

  banzai::Machine ref = compiled.machine().clone();
  banzai::Machine m = compiled.machine().clone();

  std::vector<Packet> want, got;
  banzai::StateStore ref_snap, snap;
  auto run = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) want.push_back(ref.process(trace[i]));
    std::vector<Packet> part(trace.begin() + from, trace.begin() + to);
    run_columns(m, part, 64);
    for (Packet& p : part) got.push_back(std::move(p));
  };
  run(0, a);
  ref_snap = ref.snapshot_state();
  snap = m.snapshot_state();
  run(a, b);
  ref.restore_state(ref_snap);
  m.restore_state(snap);
  run(b, trace.size());

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "packet " << i;
  EXPECT_EQ(m.state(), ref.state());
}

TEST(ShardCoreBatchTest, ZeroBatchSizeIsClampedToOne) {
  const AlgorithmInfo& alg = algorithms::algorithm("rcp");
  domino::CompileResult compiled = compile_least(alg);
  banzai::ShardCore core(compiled.machine(), 1, 1, 0, {});
  EXPECT_EQ(core.batch_size(), 1u);

  // And the clamped core still drains: one packet per run_batch call.
  const auto trace = make_workload(alg, compiled.machine(), 20, 5u);
  banzai::Machine ref = compiled.machine().clone();
  std::vector<Packet> in = trace, out(trace.size());
  const std::vector<std::size_t> slots(trace.size(), 0);
  core.drain(0, slots.data(), in.data(), in.size(), out.data());
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(out[i], ref.process(trace[i])) << "packet " << i;
}

TEST(ShardCoreBatchTest, ChunkedDrainOfOversizedSlotGroupsMatchesSequential) {
  // Few flows over few slots, drained in calls much larger than batch_size:
  // every slot's group in a call spans several run_batch chunks.  Each
  // slot's egress and final state must match one machine fed exactly that
  // slot's packets in arrival order, bit for bit.
  const AlgorithmInfo& alg = algorithms::algorithm("flowlets");
  domino::CompileResult compiled = compile_least(alg);
  const auto& ft = compiled.machine().fields();
  const std::vector<banzai::FieldId> key = {ft.id_of("sport"),
                                            ft.id_of("dport")};
  const auto trace = make_workload(alg, compiled.machine(), 3000, 19u);

  const std::size_t kSlots = 6, kShards = 2, kBatch = 16, kCall = 500;
  banzai::ShardCore core(compiled.machine(), kSlots, kShards, kBatch, key);
  std::vector<Packet> out(trace.size());
  std::size_t largest_group = 0;
  for (std::size_t from = 0; from < trace.size(); from += kCall) {
    const std::size_t to = std::min(trace.size(), from + kCall);
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      std::vector<std::size_t> pos, slots;
      std::vector<Packet> in;
      std::vector<std::size_t> group(kSlots, 0);
      for (std::size_t i = from; i < to; ++i) {
        const std::size_t slot = core.slot_of(trace[i]);
        if (slot % kShards != shard) continue;
        pos.push_back(i);
        slots.push_back(slot);
        in.push_back(trace[i]);
        largest_group = std::max(largest_group, ++group[slot]);
      }
      std::vector<Packet> got(in.size());
      core.drain(shard, slots.data(), in.data(), in.size(), got.data());
      for (std::size_t k = 0; k < pos.size(); ++k)
        out[pos[k]] = std::move(got[k]);
    }
  }
  // The point of the fixture: some slot's group spans many chunks.
  ASSERT_GT(largest_group, 4 * kBatch);

  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    banzai::Machine ref = compiled.machine().clone();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (core.slot_of(trace[i]) != slot) continue;
      ASSERT_EQ(out[i], ref.process(trace[i]))
          << "slot " << slot << ", packet " << i;
    }
    EXPECT_EQ(core.slot_machine(slot).state(), ref.state()) << "slot " << slot;
  }
}

}  // namespace
