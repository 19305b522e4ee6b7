(** Benchmark kernel registry and measurement harness.

    Every figure in the paper's evaluation runs a set of benchmarks through
    one or more SFI toolchain configurations and reports runtime normalized
    to native execution. A {!t} bundles the Wasm module, its entry point
    and arguments, an expected checksum (so a misbehaving compilation can
    never masquerade as a speedup), and — when the native version genuinely
    differs (64-bit pointers vs Wasm's 32-bit indices, the §6.1/§6.2
    "faster than native" effect) — a separate native-layout module. *)

type t = {
  name : string;
  suite : string;
  description : string;
  wasm : Sfi_wasm.Ast.module_ Lazy.t;
  native : Sfi_wasm.Ast.module_ Lazy.t option;
      (** module compiled for the native baseline when its data layout
          differs from the Wasm one; [None] reuses [wasm] *)
  entry : string;
  args : int64 list;
  checksum : int64 option;
}

val make :
  name:string ->
  suite:string ->
  ?description:string ->
  ?native:Sfi_wasm.Ast.module_ Lazy.t ->
  ?checksum:int64 ->
  entry:string ->
  args:int64 list ->
  Sfi_wasm.Ast.module_ Lazy.t ->
  t

type measurement = {
  result : int64;
  cycles : int;
  instructions : int;
  code_bytes : int;  (** static size of the compiled module *)
  fetched_bytes : int;  (** dynamic code bytes through the frontend *)
  dcache_misses : int;
  dtlb_misses : int;
  ns : float;
  tier : Sfi_machine.Machine.tier_stats;
      (** superblock occupancy of the run — all zeros under the
          [Reference] engine *)
}

val run :
  ?cost:Sfi_machine.Cost.t ->
  ?vectorize:bool ->
  ?engine:Sfi_machine.Machine.engine_kind ->
  ?trace:Sfi_trace.Trace.t ->
  strategy:Sfi_core.Strategy.t ->
  t ->
  measurement
(** Compile under [strategy] (picking the native-layout module for the
    [Direct] strategy when one exists), instantiate, invoke, verify the
    checksum, and return the performance counters of the invocation.
    [engine] selects the machine execution engine (default [Compiled]).
    [trace] installs a structured-event sink on the engine before the
    invocation (see {!Sfi_trace.Trace}); omitted, tracing stays the no-op
    [Trace.null]. Raises [Failure] on a trap or checksum mismatch. *)

val normalized : ?cost:Sfi_machine.Cost.t -> ?vectorize:bool -> Sfi_core.Strategy.t -> t -> float
(** Runtime (cycles) normalized to the native baseline — the y-axis of
    Figures 3, 4 and 5. *)

val code_size : strategy:Sfi_core.Strategy.t -> t -> int
(** Static compiled size in bytes (Table 2) without running. *)

val prometheus_gauges :
  measurement -> Sfi_runtime.Runtime.metrics -> (string * string * float) list
(** The [(name, help, value)] gauge set a kernel run exports — machine
    counters of [measurement] plus the domain-runtime aggregate — i.e.
    exactly what [sfi run --metrics-out] renders through
    {!Sfi_trace.Trace.prometheus}. Exposed so format lints can iterate
    over every gauge without shelling out to the CLI. *)
