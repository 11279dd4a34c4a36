// The Banzai machine: a pipeline of stages, each a vector of atoms executing
// in parallel on every clock cycle (Figure 1, bottom half).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "banzai/atom.h"
#include "banzai/column.h"
#include "banzai/kernel.h"
#include "banzai/native.h"
#include "banzai/packet.h"
#include "banzai/state.h"
#include "banzai/stats.h"

namespace banzai {

// Resource limits of a Banzai machine (§2.4 "Resource limits" and §5.2).
struct MachineSpec {
  std::string name;                      // e.g. "praw" target
  std::string stateful_template;         // name of the stateful atom template
  std::size_t pipeline_depth = 32;       // number of stages
  std::size_t stateless_per_stage = 300; // stateless atom slots per stage
  std::size_t stateful_per_stage = 10;   // stateful atom slots per stage
};

// One pipeline stage: atoms that execute in parallel each cycle.
//
// Stage-parallel read/write semantics: every atom of the stage observes the
// packet exactly as it entered the stage, and the atoms' writes — disjoint
// packet fields, disjoint state, a property code generation guarantees and
// CompiledPipeline::seal re-verifies — merge into the packet the next stage
// sees.  Any execution order of a stage's atoms is therefore equivalent, and
// every engine below exploits that freedom differently.
struct Stage {
  std::vector<ConfiguredAtom> atoms;

  // The stage-execution core shared by every engine (Machine::run_batch and
  // the cycle-accurate PipelineSim): all atoms observe the
  // packet as it entered the stage (`in`) and apply their writes to `out`.
  // `out` is assigned from `in` first, so callers can reuse its storage
  // across invocations without reallocating.
  void execute_into(const Packet& in, Packet& out, StateStore& state) const {
    out = in;
    for (const ConfiguredAtom& a : atoms) a.exec(in, out, state);
  }

  // Convenience form returning a fresh packet.
  Packet execute(const Packet& in, StateStore& state) const {
    Packet out;
    execute_into(in, out, state);
    return out;
  }

  // Batched form: runs the stage over n packets, atom-major so each atom's
  // configuration (and its batched fast path, when present) stays hot across
  // the whole batch.  Equivalent to execute_into on each packet in order:
  // atoms write disjoint fields and own disjoint state, so the atom loop and
  // the packet loop commute.
  void execute_batch(const Packet* in, Packet* out, std::size_t n,
                     StateStore& state) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i];
    for (const ConfiguredAtom& a : atoms) {
      if (a.exec_batch) {
        a.exec_batch(in, out, n, state);
      } else {
        for (std::size_t i = 0; i < n; ++i) a.exec(in[i], out[i], state);
      }
    }
  }
};

// A fully configured machine: the output of Domino code generation.
//
// A compiled machine carries up to three interchangeable execution paths:
//   * the closure path — per-atom std::function closures walked stage by
//     stage (the reference semantics, always present),
//   * the kernel path — the flat micro-op program the lowering pass emits
//     (banzai/kernel.h), shared read-only across clones, and
//   * the native path — the same program AOT-emitted as C++ (core/emit.*),
//     compiled by the host toolchain and dlopen'd (banzai/native.h); absent
//     when no toolchain exists, with the reason recorded.
// The ExecEngine toggle (CompileOptions::engine, or set_engine) selects
// which one process() and the engines layered on it use.  All paths are
// bit-exact on every packet field and state cell for every input — the
// engine-equivalence contract tests/kernel_test.cc enforces corpus-wide —
// so flipping the toggle mid-stream is legal: every path reads and writes
// the same FieldTable ids and the same StateStore.
//
// State binding cache: the kernel and native paths address state through
// pre-resolved StateVar pointers.  Resolving them costs one by-name hash
// lookup per state variable; the cache below keys the resolved bindings on
// the StateStore's generation counter (state.h), so the steady-state
// per-packet path (Machine::process in NetFabric nodes, single-packet
// service drains) does zero name lookups.  restore_state() and clone() bump
// or re-key the generation, so stale pointers into a replaced map can never
// be dereferenced.
class Machine {
 public:
  Machine() = default;
  Machine(MachineSpec spec, FieldTable fields)
      : spec_(std::move(spec)), fields_(std::move(fields)) {}

  MachineSpec& spec() { return spec_; }
  const MachineSpec& spec() const { return spec_; }

  FieldTable& fields() { return fields_; }
  const FieldTable& fields() const { return fields_; }

  std::vector<Stage>& stages() { return stages_; }
  const std::vector<Stage>& stages() const { return stages_; }

  StateStore& state() { return state_; }
  const StateStore& state() const { return state_; }

  std::size_t num_stages() const { return stages_.size(); }

  std::size_t num_atoms() const {
    std::size_t n = 0;
    for (const Stage& s : stages_) n += s.atoms.size();
    return n;
  }

  std::size_t max_atoms_per_stage() const {
    std::size_t m = 0;
    for (const Stage& s : stages_) m = std::max(m, s.atoms.size());
    return m;
  }

  // Engine selection.  Each value is a request; the dispatch is the truth:
  // a machine without a lowered kernel (hand-assembled, or pre-dating the
  // lowering pass) executes on closures whatever the toggle says, and
  // kNative without a loaded native pipeline runs the kernel VM — the
  // graceful-degradation ladder native > kernel > closure.  active_engine()
  // makes the resolved rung observable; flipping away from the closure
  // engine releases its ping-pong scratch so a kernel/native machine does
  // not retain closure-sized buffers.
  ExecEngine engine() const { return engine_; }
  void set_engine(ExecEngine engine) {
    engine_ = engine;
    if (active_engine() != ExecEngine::kClosure) release_closure_scratch();
  }
  // The rung of the ladder run_batch()/process() will actually execute on —
  // the old bool success-protocol of run_compiled_batch, made a first-class
  // query: callers pick batch shapes (and tests assert dispatch) against
  // this, never by probing a return value.
  ExecEngine active_engine() const {
    if (kernel_ == nullptr) return ExecEngine::kClosure;
    if (engine_ == ExecEngine::kNative)
      return native_ != nullptr ? ExecEngine::kNative : ExecEngine::kKernel;
    return engine_;
  }
  void set_kernel(std::shared_ptr<const CompiledPipeline> kernel) {
    kernel_ = std::move(kernel);
  }
  const CompiledPipeline* kernel() const { return kernel_.get(); }
  // The kernel execution actually dispatches to: non-null only when a
  // lowered program is attached AND the engine toggle resolves to it —
  // including a kNative request degrading to the VM.
  const CompiledPipeline* active_kernel() const {
    if (kernel_ == nullptr) return nullptr;
    if (engine_ == ExecEngine::kKernel) return kernel_.get();
    if (engine_ == ExecEngine::kNative && native_ == nullptr)
      return kernel_.get();
    return nullptr;
  }

  // The native (AOT-compiled, dlopen'd) pipeline.  Attached by the compiler
  // driver when CompileOptions::engine == kNative and the host toolchain
  // accepts the emitted source; shared across clones like the kernel.  The
  // native path binds state through the kernel's state table, so a native
  // pipeline is only dispatched to when the kernel is attached too.
  void set_native(std::shared_ptr<const NativePipeline> native) {
    native_ = std::move(native);
    if (native_ != nullptr) native_fallback_.clear();
  }
  const NativePipeline* native() const { return native_.get(); }
  const NativePipeline* active_native() const {
    return engine_ == ExecEngine::kNative && kernel_ != nullptr
               ? native_.get()
               : nullptr;
  }
  // Why a kNative request is running on the kernel VM instead: empty when a
  // native pipeline is attached (or was never requested).
  void set_native_fallback(std::string reason) {
    native_fallback_ = std::move(reason);
  }
  const std::string& native_fallback_reason() const {
    return native_fallback_;
  }

  // Runs one packet through all stages back-to-back (functionally equivalent
  // to the pipelined execution; see PipelineSim for the cycle-accurate form
  // and run_batch for the batched throughput engine) on whichever engine
  // active_engine() resolves to.
  Packet process(Packet pkt) {
    run_batch(BatchView::rows(&pkt, 1));
    return pkt;
  }

  // The single typed batch entry point: runs the view's packets through the
  // whole pipeline, in place, on whichever engine active_engine() resolves
  // to — every engine × every batch shape, no success protocol.  Row views
  // execute directly on every engine.  Columnar views run the native
  // columnar entry point when the loaded .so exports it, the kernel VM's
  // columnar loops otherwise, and on the closure engine scatter into row
  // scratch, execute the reference semantics, and gather back — correct
  // everywhere, fast where the engine can use the shape.
  void run_batch(BatchView batch);

  // Checkpoint and restore of the mutable half of the machine.  The pipeline
  // configuration is immutable after codegen, so persistent state is the only
  // thing a drained machine needs to hand to its successor.
  StateStore snapshot_state() const { return state_.snapshot(); }
  void restore_state(const StateStore& snap) { state_.restore(snap); }

  // --- Per-stage observability (banzai/stats.h) ---------------------------
  // Every machine carries a StageCounters table; whether the execution
  // engines *increment* it is a build-time decision (-DDOMINO_STAGE_COUNTERS)
  // so the default hot path pays nothing — stage_counters_enabled() reports
  // which build this is.  The counters are per-replica (cloning copies, then
  // ShardCore resets each slot's copy), so hot-path increments never share a
  // cache line across workers; aggregation sums rows() at stats() time.
  static constexpr bool stage_counters_enabled() {
#if defined(DOMINO_STAGE_COUNTERS)
    return true;
#else
    return false;
#endif
  }
  StageCounters& stage_counters() { return stage_counters_; }
  const StageCounters& stage_counters() const { return stage_counters_; }
  // Pre-sizes the table to this machine's stage count.  Must be called (once,
  // single-threaded) before concurrent readers may touch the counters — the
  // table is not resize-safe against them.  Idempotent.
  void prepare_stage_counters() { stage_counters_.prepare(num_stages()); }
  void reset_stage_counters() { stage_counters_.reset(); }

  // An independent replica of this machine: same pipeline configuration, its
  // own StateStore snapshot.  Atom closures capture their configuration by
  // value and reach state only through the StateStore& they are handed at
  // execution time, so replicas never share mutable state — this is what
  // ShardCore relies on to scale one compiled program across slots.  The
  // lowered kernel and the native pipeline, immutable after sealing/loading and
  // stateless at execution time, are shared between replicas rather than
  // copied.  The copied StateStore takes a fresh generation, so the replica's
  // binding cache can never dereference pointers into the source's store.
  Machine clone() const { return *this; }

 private:
  // Resolved state bindings for the kernel/native paths, keyed on the
  // StateStore generation.  Copying a Machine copies the store (fresh
  // generation) but the cache too — the generation mismatch forces a rebind
  // before first use, so the copied pointers are never dereferenced.  Moves
  // keep both valid: unordered_map moves preserve node addresses.
  struct BindingCache {
    std::uint64_t gen = 0;
    const CompiledPipeline* prog = nullptr;
    std::vector<StateVar*> vars;        // slot order of kernel state table
    std::vector<NativeStateView> views; // same order, for the native ABI
    std::vector<Value*> pkt_ptrs;       // scratch for native batch calls
  };

  void rebind_state_if_stale() {
    if (bind_.prog == kernel_.get() && bind_.gen == state_.generation())
      return;
    const std::size_t n = kernel_->num_state_vars();
    bind_.vars.clear();
    bind_.views.clear();
    bind_.vars.reserve(n);
    bind_.views.reserve(n);
    for (const std::string& name : kernel_->state_names()) {
      StateVar& v = state_.var(name);
      bind_.vars.push_back(&v);
      bind_.views.push_back(
          NativeStateView{v.data(), static_cast<std::uint64_t>(v.size())});
    }
    bind_.prog = kernel_.get();
    bind_.gen = state_.generation();
  }

  // The closure engine's batch path (machine.cc): stage-major ping-pong over
  // cur_/next_, plus row scratch for columnar views.  Released when the
  // engine toggle leaves the closure rung.
  void run_closure_rows(Packet* pkts, std::size_t n);
  void release_closure_scratch() {
    std::vector<Packet>().swap(cur_);
    std::vector<Packet>().swap(next_);
    std::vector<Packet>().swap(col_rows_);
  }

  MachineSpec spec_;
  FieldTable fields_;
  std::vector<Stage> stages_;
  StateStore state_;
  ExecEngine engine_ = ExecEngine::kClosure;
  std::shared_ptr<const CompiledPipeline> kernel_;
  std::shared_ptr<const NativePipeline> native_;
  std::string native_fallback_;
  BindingCache bind_;
  std::vector<Packet> cur_, next_;  // closure ping-pong stage buffers
  std::vector<Packet> col_rows_;    // closure row scratch for columnar views
  StageCounters stage_counters_;    // per-stage packets/ops/ns (stats.h)
  // Scratch rows the native ABI fills per batch before folding into
  // stage_counters_ (the .so writes plain uint64s, not atomics).
  std::vector<NativeStageCounterRow> native_ctr_;
};

}  // namespace banzai
