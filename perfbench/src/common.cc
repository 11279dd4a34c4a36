#include <sys/resource.h>

#include <ctime>
#include <stdexcept>

#include "algorithms/corpus.h"
#include "atoms/stateful.h"
#include "atoms/targets.h"
#include "bench.h"
#include "sim/tracegen.h"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

void repeat_for(double seconds, int min_passes,
                const std::function<void()>& pass) {
  const auto t0 = Clock::now();
  for (int k = 0;
       k < min_passes || seconds_between(t0, Clock::now()) < seconds; ++k)
    pass();
}

const atoms::BanzaiTarget* paper_target_for(
    const algorithms::AlgorithmInfo& alg) {
  for (const auto& t : atoms::paper_targets())
    if (alg.paper_least_atom == atoms::stateful_kind_name(t.stateful_atom))
      return &t;
  return nullptr;
}

Flowlets compile_flowlets() {
  const auto& alg = algorithms::algorithm("flowlets");
  const atoms::BanzaiTarget* target = paper_target_for(alg);
  if (target == nullptr)
    throw std::runtime_error("flowlets has no paper target");
  Flowlets fl{domino::compile(alg.source, *target), nullptr, nullptr, {}};
  const auto& ft = fl.compiled.machine().fields();
  const wire::WireSpec spec = wire::parse_wire_spec(alg.wire_spec);
  fl.rx = std::make_shared<const wire::WireCodec>(spec, ft);
  fl.tx = std::make_shared<const wire::WireCodec>(spec, ft,
                                                  fl.compiled.output_map());
  fl.flow_key = {ft.id_of("sport"), ft.id_of("dport")};
  return fl;
}

Frames render_frames(const Flowlets& fl, std::size_t count,
                     std::uint64_t seed) {
  netsim::FlowTraceConfig cfg;
  cfg.num_packets = count;
  cfg.num_flows = 1000;
  cfg.zipf_skew = 1.1;
  cfg.seed = seed;
  const auto trace = netsim::generate_flow_trace(cfg);

  const auto& ft = fl.machine().fields();
  const banzai::FieldId f_sport = ft.id_of("sport");
  const banzai::FieldId f_dport = ft.id_of("dport");
  const banzai::FieldId f_arrival = ft.id_of("arrival");
  Frames frames;
  frames.frame_bytes = fl.frame_bytes();
  frames.count = count;
  frames.bytes.resize(count * frames.frame_bytes);
  banzai::Packet p(ft.size());
  for (std::size_t i = 0; i < count; ++i) {
    const auto& tp = trace[i];
    // The wire fields are u16/u16/u32 and the machine's values are int32.
    if (tp.sport < 0 || tp.sport > 0xFFFF || tp.dport < 0 ||
        tp.dport > 0xFFFF || tp.arrival < 0 || tp.arrival > INT32_MAX)
      throw std::runtime_error("trace value does not fit the wire spec");
    p.set(f_sport, tp.sport);
    p.set(f_dport, tp.dport);
    p.set(f_arrival, static_cast<banzai::Value>(tp.arrival));
    fl.rx->deparse_into(p, frames.bytes.data() + i * frames.frame_bytes);
  }
  return frames;
}

Reference::Reference(const Flowlets& fl, std::size_t num_slots)
    : fl_(fl), hasher_(fl.machine(), num_slots, 1, 1, fl.flow_key) {
  replicas_.reserve(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s)
    replicas_.push_back(fl.machine().clone());
}

std::vector<std::uint8_t> Reference::next(const Frames& frames,
                                          std::size_t n) {
  const std::size_t fb = frames.frame_bytes;
  std::vector<std::uint8_t> expected(n * fb);
  banzai::Packet pkt(fl_.rx->num_table_fields());
  for (std::size_t i = 0; i < n; ++i) {
    if (!fl_.rx->parse_exact(frames.at(i), fb, pkt).ok())
      throw std::runtime_error("reference: rendered frame does not parse");
    const banzai::Packet out = replicas_[hasher_.slot_of(pkt)].process(pkt);
    fl_.tx->deparse_into(out, expected.data() + i * fb);
  }
  return expected;
}

}  // namespace perfbench
