// The compile_corpus workload: the compiler passes and synthesis do all the
// work and no runtime layer runs.  CoDel's rejection is §5.3's worst case:
// the search exhausts its space before the compiler may say no.
#include <map>
#include <optional>
#include <random>
#include <stdexcept>

#include "algorithms/corpus.h"
#include "atoms/targets.h"
#include "bench.h"
#include "core/codegen.h"
#include "core/interp.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/pipeline.h"
#include "core/sema.h"

namespace perfbench {

namespace {

constexpr int kPacketsPerProgram = 400;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-6;
}

}  // namespace

struct CorpusCase {
  const algorithms::AlgorithmInfo* alg = nullptr;
  atoms::BanzaiTarget target;
  bool expect_accept = false;
  // The seeded packet sequence (input fields by name) and, per packet, the
  // interpreter's final value of every packet field in declaration order.
  std::vector<std::map<std::string, banzai::Value>> inputs;
  std::vector<std::string> fields;
  std::vector<std::vector<banzai::Value>> expected;

  // True when `m` reproduces the interpreter on the whole sequence.
  bool matches(banzai::Machine m,
               const std::map<std::string, std::string>& output_map) const {
    const auto& ft = m.fields();
    std::vector<banzai::FieldId> out_ids;
    for (const auto& f : fields) {
      const auto it = output_map.find(f);
      out_ids.push_back(ft.id_of(it == output_map.end() ? f : it->second));
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      banzai::Packet p(ft.size());
      for (const auto& [k, v] : inputs[i])
        if (const auto id = ft.try_id_of(k)) p.set(*id, v);
      const banzai::Packet out = m.process(std::move(p));
      for (std::size_t j = 0; j < out_ids.size(); ++j)
        if (out.get(out_ids[j]) != expected[i][j]) return false;
    }
    return true;
  }
};

Corpus::Corpus(std::uint64_t seed, bool corrupt_reference) {
  const auto& targets = atoms::paper_targets();
  for (const auto& alg : algorithms::corpus()) {
    CorpusCase c;
    c.alg = &alg;
    const atoms::BanzaiTarget* least = paper_target_for(alg);
    c.expect_accept = least != nullptr;
    // A program the paper reports as not mapping must be rejected even by
    // the most expressive target.
    c.target = least != nullptr ? *least : targets.back();
    if (c.expect_accept) {
      domino::Interpreter interp(domino::parse_and_check(alg.source));
      for (const auto& f : interp.fields().names()) c.fields.push_back(f);
      std::mt19937 rng(static_cast<std::mt19937::result_type>(
          seed * 1000003u + cases_.size()));
      for (int i = 0; i < kPacketsPerProgram; ++i) {
        std::map<std::string, banzai::Value> in;
        alg.workload(rng, i, in);
        banzai::Packet p = interp.make_packet();
        for (const auto& [k, v] : in)
          if (const auto id = interp.fields().try_id_of(k)) p.set(*id, v);
        interp.run(p);
        std::vector<banzai::Value> row;
        for (const auto& f : c.fields) row.push_back(interp.get(p, f));
        c.inputs.push_back(std::move(in));
        c.expected.push_back(std::move(row));
      }
    }
    cases_.push_back(std::move(c));
  }
  if (corrupt_reference) cases_.front().expected.front().front() ^= 1;
}

Corpus::~Corpus() = default;

CorpusPass Corpus::pass(bool traced) const {
  CorpusPass r;
  for (const CorpusCase& c : cases_) {
    const std::string& src = c.alg->source;
    bool accepted = false;
    bool output_ok = true;
    const double c0 = process_cpu_seconds();
    const auto a = Clock::now();
    if (!traced) {
      std::optional<domino::CompileResult> compiled;
      try {
        compiled.emplace(domino::compile(src, c.target));
      } catch (const domino::CompileError&) {
      }
      const auto b = Clock::now();
      r.cpu_s += process_cpu_seconds() - c0;
      r.program_s.push_back(seconds_between(a, b));
      accepted = compiled.has_value();
      if (accepted)
        output_ok = c.matches(compiled->machine(), compiled->output_map());
    } else {
      try {
        domino::Program prog = domino::parse(src);
        domino::analyze(prog);
        const auto t1 = Clock::now();
        const domino::Normalized nz = domino::normalize(prog);
        const auto t2 = Clock::now();
        const domino::CodeletPipeline pvsm = domino::pipeline_schedule(nz.tac);
        const auto t3 = Clock::now();
        domino::CodegenResult cg = domino::generate_code(
            pvsm, nz.ssa, c.target, nz.final_names);
        const auto t4 = Clock::now();
        r.cpu_s += process_cpu_seconds() - c0;
        r.program_s.push_back(seconds_between(a, t4));
        r.parse_ms += ms_between(a, t1);
        r.normalize_ms += ms_between(t1, t2);
        r.pipeline_ms += ms_between(t2, t3);
        r.codegen_ms += ms_between(t3, t4);
        for (const auto& rep : cg.reports) {
          r.synth_ms += rep.synth_stats.seconds * 1e3;
          r.candidates += rep.synth_stats.candidates_tried;
        }
        accepted = true;
        output_ok = c.matches(cg.machine, nz.final_names);
      } catch (const domino::CompileError&) {
        const auto b = Clock::now();
        r.cpu_s += process_cpu_seconds() - c0;
        r.program_s.push_back(seconds_between(a, b));
        r.reject_ms += ms_between(a, b);
      }
    }
    r.wall_s += r.program_s.back();
    ++r.programs;
    if (accepted != c.expect_accept || !output_ok) ++r.failed;
  }
  return r;
}

void run_compile_corpus(const Options& opt, Outcome& out) {
  const Corpus corpus(opt.seed, opt.corrupt_reference);
  const CorpusPass warm = corpus.pass(false);
  out.count(warm.programs, warm.failed);

  // Set-up is the step the runtime workloads also start with: the paper's
  // worked example from source to a machine with bound codecs.
  std::vector<double> setup_s, programs_per_s, cpu_ns, p50_us, p95_us;
  repeat_for(opt.seconds, 3, [&] {
    setup_s.push_back(time_setup([](const Flowlets&) { return 0; }));
    CorpusPass p = corpus.pass(false);
    out.count(p.programs, p.failed);
    programs_per_s.push_back(static_cast<double>(p.programs) / p.wall_s);
    cpu_ns.push_back(p.cpu_s * 1e9 / static_cast<double>(p.programs));
    for (double& s : p.program_s) s *= 1e6;
    p50_us.push_back(quantile(p.program_s, 0.50));
    p95_us.push_back(quantile(p.program_s, 0.95));
  });
  out.add("setup_s", "s", median(setup_s));
  out.add("throughput_fps", "frames/s", median(programs_per_s));
  out.add("cpu_ns_per_frame", "ns", median(cpu_ns));
  out.add("latency_p50_us", "us", median(p50_us));
  out.add("latency_p95_us", "us", median(p95_us));
  out.add("peak_rss_mb", "MB", peak_rss_mb());
}

}  // namespace perfbench
