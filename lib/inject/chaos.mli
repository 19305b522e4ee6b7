(** Chaos scheduling for the live FaaS sim.

    Where {!Inject} attacks isolation offline (mutated programs against a
    canary), this arm perturbs a {e running} {!Sfi_faas.Sim} on a seeded
    schedule — kill a random in-flight instance, spike IO latency, force
    transient instantiate failures — and checks resilience invariants
    after every perturbation and at quiescence:

    - {b no cross-tenant blast radius}: a chaos kill fails exactly the
      victim's request; no other tenant's failure count moves;
    - {b availability floor}: completions / attempts stays above the
      configured floor despite the perturbations;
    - {b breakers re-close}: every circuit breaker tripped by a kill is
      Closed again by the end of the run (the schedule leaves a quiesce
      tail for probes to succeed).

    The plan is a pure function of the seed: same seed ⇒ byte-identical
    schedule (compare {!plan_digest}) and, because the sim draws chaos
    randomness from its own dedicated PRNG stream, identical sim
    counters across repeats. *)

type config = {
  seed : int64;
  perturbations : int;  (** events in the schedule (default 200) *)
  duration_ns : float;
      (** simulated run length; events are scheduled in the first 65%,
          leaving a quiesce tail for breakers to re-close *)
  workload : Sfi_faas.Workloads.t;
  engine : Sfi_machine.Machine.engine_kind option;
      (** execution engine ([None] = the machine default) *)
  concurrency : int;
  pool_slots : int;  (** slot pool smaller than [concurrency], so
                         admission is genuinely contended *)
  io_mean_ns : float;
  availability_floor : float;  (** end-of-run availability invariant *)
}

val default_config : ?seed:int64 -> ?perturbations:int -> unit -> config
(** Seed [0xC4A05L], 200 perturbations, 50 ms simulated, hash workload,
    64 tenants over 16 slots, 1 ms IO mean, 5 µs epochs (so handlers
    span epochs and kills find in-flight victims), floor 0.90. *)

val plan : config -> Sfi_faas.Sim.chaos_event list
(** The seeded schedule: sorted perturbations — roughly half kills, a
    quarter latency spikes (2-8x for 0.5-2 ms), a quarter transient
    instantiate-failure bursts (1-4 attempts). Pure in [seed]. *)

val plan_digest : Sfi_faas.Sim.chaos_event list -> string
(** Hex digest of the serialized schedule — byte-identical schedules
    compare equal. *)

type violation = {
  v_index : int;  (** perturbation index, or [-1] for an end-state check *)
  v_kind : string;  (** ["blast-radius"], ["availability"], ["breaker"],
                        ["applied"], ["postmortem"] *)
  v_detail : string;
}

type run_result = {
  digest : string;  (** {!plan_digest} of the schedule that ran *)
  sim : Sfi_faas.Sim.result;
  violations : violation list;  (** empty = all invariants held *)
}

val validate : config -> (unit, string) result
(** {!Sfi_faas.Sim.validate} of the sim configuration {!run} would serve
    under: [Error reason] when the sim would refuse it. *)

val run :
  ?trace:Sfi_trace.Trace.t -> ?flight:Sfi_trace.Flight.t -> config -> run_result
(** Run the sim fault-free with admission control and per-tenant
    breakers armed, applying the plan and checking the per-perturbation
    blast-radius invariant plus the end-state invariants (availability
    floor, all breakers closed, every scheduled perturbation applied).
    When [flight] is supplied it is armed on the sim; at quiescence every
    injected fault class must have frozen a non-empty post-mortem bundle
    or a ["postmortem"] violation is reported. Deterministic: two runs
    of one config have equal [digest]s and equal
    {!Sfi_faas.Shard.result_fingerprint}s of [sim]. *)
