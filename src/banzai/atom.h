// A configured atom instance: one processing unit in one Banzai stage.
//
// Code generation (src/core/codegen.*) lowers each codelet to a closure over
// the atom-template evaluator plus its synthesized configuration.  The Banzai
// simulator itself is agnostic to how the closure was produced: an atom is
// "a body of sequential code that completes before the next packet" (§2.3),
// here literally a function executed atomically within one simulated cycle.
//
// Execution semantics within a stage: all atoms of a stage run in parallel on
// the packet as it *entered* the stage (reads from `in`), producing writes
// into `out`.  Each atom owns disjoint output fields and disjoint state, which
// code generation guarantees.  Those two disjointness properties are what
// every faster engine rests on: they make the atom loop and the packet loop
// commute (Stage::execute_batch, Machine::run_batch's stage-major order) and they make
// in-place execution legal (the fused micro-op kernel of banzai/kernel.h).
//
// Engine-equivalence contract: the closure in `exec` is the reference
// semantics.  `exec_batch` — and the lowered kernel program a compiled
// machine carries alongside these closures — must be bit-exact with it on
// every packet field and every state cell, for every input.  Totality is
// part of that contract: no exceptions, wrapping arithmetic, total
// division (banzai/value.h), clamped array indices (banzai/state.h).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "banzai/packet.h"
#include "banzai/state.h"

namespace banzai {

enum class AtomKind {
  kStateless,  // pure packet-field computation
  kStateful,   // reads and/or writes one or two state variables
  kIntrinsic,  // hardware accelerator (hash unit, lookup table)
};

struct ConfiguredAtom {
  std::string label;  // human-readable description (for dumps/benches)
  AtomKind kind = AtomKind::kStateless;
  // State variables this atom owns (empty for stateless atoms).
  std::vector<std::string> state_vars;
  // Packet fields this atom writes (used to verify disjointness).
  std::vector<FieldId> output_fields;
  // The atom body.  Must be total: no exceptions on any input.
  std::function<void(const Packet& in, Packet& out, StateStore& state)> exec;
  // Optional batched body: semantically `for i in [0,n): exec(in[i], out[i])`
  // but with per-packet dispatch amortized across the batch (state variables
  // resolved once, one indirect call per batch instead of per packet).
  // Engines fall back to per-packet exec when absent.
  std::function<void(const Packet* in, Packet* out, std::size_t n,
                     StateStore& state)>
      exec_batch;
};

}  // namespace banzai
