#include "banzai/machine.h"

#include <stdexcept>
#include <utility>

#if defined(DOMINO_STAGE_COUNTERS)
#include <chrono>
#endif

namespace banzai {

#if defined(DOMINO_STAGE_COUNTERS)
namespace {
// The counted builds route every engine through per-stage instrumentation;
// this helper folds the plain rows a native .so fills into the machine's
// atomic accumulators.
void fold_native_rows(const NativeStageCounterRow* rows, std::size_t stages,
                      StageCounters& into) {
  for (std::size_t s = 0; s < stages; ++s)
    if (rows[s].packets | rows[s].ops | rows[s].ns)
      into.add(s, rows[s].packets, rows[s].ops, rows[s].ns);
}
}  // namespace
#endif

void Machine::run_batch(BatchView batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;

  switch (active_engine()) {
    case ExecEngine::kNative: {
      const NativePipeline* nat = native_.get();
      rebind_state_if_stale();
#if defined(DOMINO_STAGE_COUNTERS)
      // The emitted code increments plain uint64 rows (no atomics in the
      // .so); fold them into the shared-readable accumulators afterwards.
      // A .so emitted without counter support leaves the rows zero.
      prepare_stage_counters();
      native_ctr_.assign(kernel_->num_stages(), NativeStageCounterRow{});
      NativeStageCounterRow* const ctr = native_ctr_.data();
#else
      NativeStageCounterRow* const ctr = nullptr;
#endif
      if (batch.columnar()) {
        ColumnBatch& cb = batch.cols();
        if (cb.num_fields() < nat->num_fields())
          throw std::invalid_argument(
              "native pipeline: column batch narrower than the compiled "
              "program's field table");
        if (nat->has_columnar()) {
          nat->run_columns(cb.col_ptrs(), n, bind_.views.data(), ctr);
        } else {
          // A .so from before the columnar emission mode: keep the columnar
          // shape on the kernel VM rather than transposing back.
#if defined(DOMINO_STAGE_COUNTERS)
          kernel_->run_columns_counted(cb, bind_.vars.data(), stage_counters_);
          return;
#else
          kernel_->run_columns_bound(cb, bind_.vars.data());
#endif
        }
#if defined(DOMINO_STAGE_COUNTERS)
        fold_native_rows(ctr, kernel_->num_stages(), stage_counters_);
#endif
        return;
      }
      Packet* pkts = batch.row_data();
      for (std::size_t i = 0; i < n; ++i)
        if (pkts[i].num_fields() < nat->num_fields())
          throw std::invalid_argument(
              "native pipeline: packet narrower than the compiled program's "
              "field table");
      bind_.pkt_ptrs.resize(n);
      for (std::size_t i = 0; i < n; ++i) bind_.pkt_ptrs[i] = pkts[i].data();
      nat->run(bind_.pkt_ptrs.data(), n, bind_.views.data(), ctr);
#if defined(DOMINO_STAGE_COUNTERS)
      fold_native_rows(ctr, kernel_->num_stages(), stage_counters_);
#endif
      return;
    }
    case ExecEngine::kKernel: {
      rebind_state_if_stale();
#if defined(DOMINO_STAGE_COUNTERS)
      if (batch.columnar())
        kernel_->run_columns_counted(batch.cols(), bind_.vars.data(),
                                     stage_counters_);
      else
        kernel_->run_batch_counted(batch.row_data(), n, bind_.vars.data(),
                                   stage_counters_);
#else
      if (batch.columnar())
        kernel_->run_columns_bound(batch.cols(), bind_.vars.data());
      else
        kernel_->run_batch_bound(batch.row_data(), n, bind_.vars.data());
#endif
      return;
    }
    case ExecEngine::kClosure:
      break;
  }

  // Closure engine.  Columnar views take a transpose detour through row
  // scratch: the reference semantics have no columnar form.
  if (batch.columnar()) {
    ColumnBatch& cb = batch.cols();
    if (col_rows_.size() < n) col_rows_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      if (col_rows_[i].num_fields() != cb.num_fields())
        col_rows_[i] = Packet(cb.num_fields());
    cb.scatter(col_rows_.data());
    run_closure_rows(col_rows_.data(), n);
    cb.gather(col_rows_.data(), n, cb.num_fields());
    return;
  }
  run_closure_rows(batch.row_data(), n);
}

// Stage-major over the whole batch (legal by §2.3 state locality, see
// banzai/fleet.h): stage 0 reads the callers' packets into cur_, later
// stages ping-pong between the two reusable buffers, and the final stage's
// output moves back into the caller's storage, keeping run_batch's in-place
// contract.
void Machine::run_closure_rows(Packet* pkts, std::size_t n) {
  if (stages_.empty()) return;
  if (cur_.size() < n) cur_.resize(n);
  if (next_.size() < n) next_.resize(n);
#if defined(DOMINO_STAGE_COUNTERS)
  // The closure engine counts atoms, not micro-ops: ops here is "atom
  // executions" (packets x atoms of the stage).  Packet counts are exact and
  // engine-independent; the exactness tests compare packets across engines
  // and ops only where micro-ops are the unit (kernel vs native).
  prepare_stage_counters();
  using clock = std::chrono::steady_clock;
  auto timed = [&](std::size_t s, const Packet* in, Packet* out) {
    const auto t0 = clock::now();
    stages_[s].execute_batch(in, out, n, state_);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count());
    stage_counters_.add(s, n, stages_[s].atoms.size() * n, ns);
  };
  timed(0, pkts, cur_.data());
  for (std::size_t s = 1; s < stages_.size(); ++s) {
    timed(s, cur_.data(), next_.data());
    std::swap(cur_, next_);
  }
#else
  stages_[0].execute_batch(pkts, cur_.data(), n, state_);
  for (std::size_t s = 1; s < stages_.size(); ++s) {
    stages_[s].execute_batch(cur_.data(), next_.data(), n, state_);
    std::swap(cur_, next_);
  }
#endif
  for (std::size_t i = 0; i < n; ++i) pkts[i] = std::move(cur_[i]);
}

}  // namespace banzai
