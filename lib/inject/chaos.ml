(* Chaos scheduling over the live FaaS sim: seeded perturbation plans,
   blast-radius accounting after every event, and end-state invariants.
   Policy lives here; the mechanism (applying a perturbation to the run)
   lives in Sim. *)

module Sim = Sfi_faas.Sim
module Workloads = Sfi_faas.Workloads
module Breaker = Sfi_faas.Breaker
module Runtime = Sfi_runtime.Runtime
module Prng = Sfi_util.Prng

type config = {
  seed : int64;
  perturbations : int;
  duration_ns : float;
  workload : Workloads.t;
  engine : Sfi_machine.Machine.engine_kind option;
  concurrency : int;
  pool_slots : int;
  io_mean_ns : float;
  availability_floor : float;
}

let default_config ?(seed = 0xC4A05L) ?(perturbations = 200) () =
  {
    seed;
    perturbations;
    duration_ns = 50.0e6;
    workload = Workloads.Hash_balance;
    engine = None;
    concurrency = 64;
    pool_slots = 16;
    io_mean_ns = 1.0e6;
    availability_floor = 0.90;
  }

(* Schedule events in the first 65% of the run: the tail is quiesce time
   for tripped breakers to probe and re-close and queues to drain. *)
let plan cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let horizon = 0.65 *. cfg.duration_ns in
  let events =
    List.init cfg.perturbations (fun _ ->
        let at_ns = 0.05 *. cfg.duration_ns +. Prng.float rng (horizon -. (0.05 *. cfg.duration_ns)) in
        let action =
          match Prng.int rng 4 with
          | 0 | 1 -> Sim.Chaos_kill
          | 2 ->
              Sim.Chaos_latency
                {
                  factor = 2.0 +. Prng.float rng 6.0;
                  window_ns = 0.5e6 +. Prng.float rng 1.5e6;
                }
          | _ -> Sim.Chaos_instantiate_fail (1 + Prng.int rng 4)
        in
        { Sim.at_ns; action })
  in
  List.sort (fun a b -> compare a.Sim.at_ns b.Sim.at_ns) events

let plan_digest events =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b
        (match ev.Sim.action with
        | Sim.Chaos_kill -> Printf.sprintf "%.3f kill\n" ev.Sim.at_ns
        | Sim.Chaos_latency { factor; window_ns } ->
            Printf.sprintf "%.3f latency %.4f %.3f\n" ev.Sim.at_ns factor window_ns
        | Sim.Chaos_instantiate_fail n ->
            Printf.sprintf "%.3f instfail %d\n" ev.Sim.at_ns n))
    events;
  Digest.to_hex (Digest.string (Buffer.contents b))

type violation = { v_index : int; v_kind : string; v_detail : string }

type run_result = { digest : string; sim : Sim.result; violations : violation list }

let action_class = function
  | Sim.Chaos_kill -> "chaos.kill"
  | Sim.Chaos_latency _ -> "chaos.latency"
  | Sim.Chaos_instantiate_fail _ -> "chaos.instantiate_fail"

(* The sim configuration a chaos run serves under. *)
let sim_config cfg ~events ~on_perturbation ~trace ~flight =
  let overload =
    {
      Sim.no_overload with
      Sim.pool_slots = Some cfg.pool_slots;
      admission =
        Some
          {
            Runtime.target_delay_ns = 50_000.0;
            interval_ns = 200_000.0;
            ticket_deadline_ns = 2.0e6;
            tenant_rate = 20_000.0;
            tenant_burst = 16.0;
          };
      breaker =
        Some
          {
            Breaker.failure_threshold = 1 (* every kill trips, probing recovery *);
            base_backoff_ns = 0.2e6;
            max_backoff_ns = 2.0e6;
            backoff_jitter = 0.2;
            latency_threshold_ns = None;
          };
      slo = Some (Sfi_faas.Slo.default_config ());
    }
  in
  {
    (Sim.default_config ~workload:cfg.workload ~churn:true ~overload
       ?engine:cfg.engine ~chaos:events ~on_perturbation ())
    with
    Sim.concurrency = cfg.concurrency;
    duration_ns = cfg.duration_ns;
    io_mean_ns = cfg.io_mean_ns;
    (* 5 us epochs: the ~16 us handlers span several epochs, so kills
       find in-flight victims; 16-epoch deadline keeps the watchdog off
       well-behaved requests. *)
    epoch_ns = 5000.0;
    faults = { Sim.no_faults with Sim.deadline_epochs = 16 };
    seed = cfg.seed;
    trace;
    flight;
  }

let validate cfg =
  Sim.validate
    (sim_config cfg ~events:[] ~on_perturbation:ignore ~trace:Sfi_trace.Trace.null
       ~flight:None)

let run ?(trace = Sfi_trace.Trace.null) ?flight cfg =
  let events = plan cfg in
  let digest = plan_digest events in
  let violations = ref [] in
  let violate ~index ~kind detail =
    violations := { v_index = index; v_kind = kind; v_detail = detail } :: !violations
  in
  (* Blast radius: between two perturbations of a fault-free run the only
     failure source is a chaos kill, so the per-tenant failure delta must
     be exactly +1 at the victim and 0 everywhere else. *)
  let prev_failed = ref (Array.make cfg.concurrency 0) in
  let on_perturbation (r : Sim.chaos_report) =
    Array.iteri
      (fun id now ->
        let d = now - !prev_failed.(id) in
        let expected = if id = r.Sim.cr_victim then 1 else 0 in
        if d <> expected then
          violate ~index:r.Sim.cr_index ~kind:"blast-radius"
            (Printf.sprintf "tenant %d failures moved %+d (expected %+d, victim %d)"
               id d expected r.Sim.cr_victim))
      r.Sim.cr_failed;
    prev_failed := Array.copy r.Sim.cr_failed
  in
  let sim_cfg = sim_config cfg ~events ~on_perturbation ~trace ~flight in
  let sim = Sim.run sim_cfg in
  if sim.Sim.chaos_applied <> cfg.perturbations then
    violate ~index:(-1) ~kind:"applied"
      (Printf.sprintf "%d of %d perturbations applied" sim.Sim.chaos_applied
         cfg.perturbations);
  if sim.Sim.availability < cfg.availability_floor then
    violate ~index:(-1) ~kind:"availability"
      (Printf.sprintf "availability %.4f below floor %.2f" sim.Sim.availability
         cfg.availability_floor);
  if sim.Sim.breakers_open_at_end > 0 then
    violate ~index:(-1) ~kind:"breaker"
      (Printf.sprintf "%d breakers still open at quiescence"
         sim.Sim.breakers_open_at_end);
  if sim.Sim.watchdog_kills > 0 then
    (* A watchdog kill in a fault-free chaos run means the deadline is
       mis-sized — it would also poison the blast-radius accounting. *)
    violate ~index:(-1) ~kind:"blast-radius"
      (Printf.sprintf "%d watchdog kills in a fault-free run" sim.Sim.watchdog_kills);
  (* When a flight recorder is armed, every injected fault class must have
     frozen a non-empty post-mortem bundle by quiescence. *)
  (match flight with
  | None -> ()
  | Some fr ->
      let classes =
        List.sort_uniq compare (List.map (fun ev -> action_class ev.Sim.action) events)
      in
      List.iter
        (fun cls ->
          match Sfi_trace.Flight.find fr cls with
          | None ->
              violate ~index:(-1) ~kind:"postmortem"
                (Printf.sprintf "no post-mortem bundle for %s" cls)
          | Some b ->
              if b.Sfi_trace.Flight.b_events = [] then
                violate ~index:(-1) ~kind:"postmortem"
                  (Printf.sprintf "empty post-mortem bundle for %s" cls))
        classes);
  { digest; sim; violations = List.rev !violations }
