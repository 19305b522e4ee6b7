(* The run loop shared by every workload: repeated set-up, the held-out
   seed check, timed passes until the run's time is up, and the metric
   table the report prints. *)

module Stats = Sfi_util.Stats

(* One pass of a workload: a fixed amount of work whose host time is the
   pass's wall time. Outputs are checked after the clock stops. *)
type outcome = {
  ops : float;  (** units of work done (the workload's [ops_unit]) *)
  attempted : int;  (** operations whose output [check] verifies *)
  fingerprint : int64;  (** digest of every simulated statistic of the pass *)
  counts : (string * float) list;
      (** exact per-layer counts of the pass, keyed by {!counts} names,
          plus ["instructions"] and ["requests"] as ratio bases *)
  samples_us : float list;  (** per-operation host latencies, when timed *)
  check : unit -> string list;  (** one message per failed operation *)
}

type 'i workload = {
  name : string;
  ops_unit : string;  (** what [ops_per_s] counts on this workload *)
  domains : int;  (** cores a timed unit keeps busy *)
  setup : Spans.t -> Calib.meter -> int64 -> 'i;
      (** build the inputs, pure in the seed; its work runs under [Calib.time] *)
  digest : 'i -> int64;  (** fingerprint of the generated inputs *)
  pass : Spans.t -> Calib.meter -> 'i -> outcome;
      (** one pass; every call into the program runs under [Calib.time] *)
}

type any = Workload : 'i workload -> any

let ops_unit (Workload w) = w.ops_unit

(* Exact per-layer counts a workload may report: name, unit, clock. A
   workload that does not reach a layer reports 0. *)
let counts =
  [
    ("core.code_bytes", "bytes", "exact");
    ("machine.promotions_per_engine", "count", "exact");
    ("machine.sb_share", "ratio", "exact");
    ("machine.cpi", "cycles/instr", "simulated");
    ("vmem.dtlb_miss_per_kinstr", "count", "simulated");
    ("vmem.dcache_miss_per_kinstr", "count", "simulated");
    ("runtime.instantiations_warm_per_req", "count", "simulated");
    ("runtime.pages_zeroed_per_req", "pages", "simulated");
    ("runtime.transitions_per_req", "count", "simulated");
    ("runtime.shed_frac", "ratio", "simulated");
    ("faas.cpu_busy_share", "ratio", "simulated");
    ("faas.steals", "count", "exact");
    ("faas.shard_busy_imbalance", "ratio", "simulated");
    ("trace.events_per_req", "count", "exact");
    ("trace.dropped", "count", "exact");
    ("sim.segue_elim_err_pp", "pp", "simulated");
    ("sim.goodput_rps", "1/s", "simulated");
    ("sim.p99_us", "us", "simulated");
  ]

(* Host-timed layers: the span names the workloads record around calls
   into the program. *)
let timed_layers =
  [
    "core.compile";
    "runtime.create_engine";
    "runtime.instantiate";
    "runtime.invoke";
    "runtime.release";
    "faas.shard_run";
    "faas.sim_run";
  ]

let setup_reps = 5

(* A run keeps measuring until its time is up, but takes at least this
   many passes of each kind (untraced, and traced with --trace 1). *)
let min_passes = 3

(* The held-out seed: derived from the run's seed, never equal to it. *)
let held_out seed = Int64.logxor seed 0x5EEDL

type metric = { name : string; value : float; unit_ : string; clock : string; n : int }

type result = {
  failures : string list;
  attempted : int;
  e2e : metric list;
  per_layer : metric list;
  fingerprint : int64;
  spans : Spans.t;  (** every traced pass, one root span per pass *)
}

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let run (Workload w) ~seed ~seconds ~trace =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  (* Set-up, repeated: every repeat must rebuild identical inputs, and
     the held-out seed must build different ones. *)
  let setup_meter = Calib.meter () in
  let setup_spans = Spans.create () in
  let setups =
    List.init setup_reps (fun _ ->
        Calib.delta setup_meter (fun () -> w.setup setup_spans setup_meter seed))
  in
  let inputs = (fun (i, _, _) -> i) (List.hd setups) in
  let digest = w.digest inputs in
  if List.exists (fun (i, _, _) -> w.digest i <> digest) setups then
    fail "set-up: the same seed built different inputs";
  if w.digest (w.setup (Spans.disabled ()) (Calib.meter ()) (held_out seed)) = digest then
    fail "set-up: the held-out seed built the same inputs";
  (* Passes. With tracing on they alternate untraced / traced, so one run
     gives both the per-layer split and the tracing overhead. *)
  let meter = Calib.meter ~domains:w.domains () in
  let spans = Spans.create () in
  let walls = ref [] and raw_walls = ref [] and traced_walls = ref [] and traced_raw = ref 0.0 in
  let rates = ref [] and samples = ref [] in
  let attempted = ref 0 and passes = ref 0 in
  let fingerprint = ref None and pass_counts = ref [] in
  let t_start = Unix.gettimeofday () in
  let enough () =
    Unix.gettimeofday () -. t_start >= seconds
    && List.length !walls >= min_passes
    && ((not trace) || List.length !traced_walls >= min_passes)
  in
  while not (enough ()) do
    (* Each pass starts from a collected heap, so the peak heap does not
       depend on where the previous pass left the major cycle (with
       worker domains that is timing-dependent). *)
    Gc.full_major ();
    let traced = trace && !passes mod 2 = 1 in
    let rec_ = if traced then spans else Spans.disabled () in
    let o, raw, wall =
      Calib.delta meter (fun () ->
          Spans.with_span rec_ ~group:!passes "bench.pass" (fun () -> w.pass rec_ meter inputs))
    in
    List.iter fail (o.check ());
    attempted := !attempted + o.attempted;
    (match !fingerprint with
    | None -> fingerprint := Some o.fingerprint
    | Some f when f <> o.fingerprint ->
        fail
          (Printf.sprintf "pass %d (%s): simulated statistics differ from pass 0" !passes
             (if traced then "traced" else "untraced"))
    | Some _ -> ());
    pass_counts := o.counts;
    if traced then begin
      traced_walls := wall :: !traced_walls;
      traced_raw := !traced_raw +. raw
    end
    else begin
      walls := wall :: !walls;
      raw_walls := raw :: !raw_walls;
      rates := (o.ops /. wall) :: !rates;
      samples := List.rev_append o.samples_us !samples
    end;
    incr passes
  done;
  let n_plain = List.length !walls and n_traced = List.length !traced_walls in
  let m ?(clock = "host") ?(n = n_plain) name unit_ value = { name; value; unit_; clock; n } in
  let wall_s = Stats.median !walls in
  let q1, q3 = Pct.quartiles !walls in
  (* "host-norm": host time rescaled to the reference host speed (Calib). *)
  let e2e =
    [
      m "setup_s" "s" (Stats.median (List.map (fun (_, _, n) -> n) setups)) ~n:setup_reps
        ~clock:"host-norm";
      m "wall_s" "s" wall_s ~clock:"host-norm";
      m "ops_per_s" "1/s" (Stats.median !rates) ~clock:"host-norm";
      m "peak_heap_mb" "MiB"
        (mib_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words))
        ~n:1;
    ]
  in
  (* Per-layer host cost from the traced passes' spans. *)
  let layers = Spans.layers spans in
  let layer name = List.assoc_opt name layers in
  let per_call name f =
    match layer name with Some l -> f l /. float_of_int l.Spans.calls | None -> 0.0
  in
  let per_pass name f =
    match layer name with Some l -> f l /. float_of_int n_traced | None -> 0.0
  in
  let share name =
    match layer name with Some l -> ratio l.Spans.total_self_s !traced_raw | None -> 0.0
  in
  let count name = Option.value (List.assoc_opt name !pass_counts) ~default:0.0 in
  let instr = count "instructions" and reqs = count "requests" in
  let faas f = per_pass "faas.shard_run" f +. per_pass "faas.sim_run" f in
  let self_s l = l.Spans.total_self_s and minor l = l.Spans.total_self_minor in
  let setup_layer name =
    match List.assoc_opt name (Spans.layers setup_spans) with
    | Some l -> l.Spans.total_self_s /. float_of_int setup_reps
    | None -> 0.0
  in
  let ns = List.length !samples in
  let tail_p, tail_v =
    match Pct.tail !samples with Some (p, v) -> (Printf.sprintf "p%g" p, v) | None -> ("-", 0.0)
  in
  let per_layer =
    List.concat_map
      (fun name ->
        [
          m (name ^ "_us") "us" (per_call name (fun l -> self_s l *. 1e6)) ~n:n_traced;
          m (name ^ "_share") "ratio" (share name) ~n:n_traced;
        ])
      timed_layers
    @ [
        m "core.compile_minor_words" "words" (per_call "core.compile" minor) ~n:n_traced;
        m "runtime.create_engine_minor_words" "words"
          (per_call "runtime.create_engine" minor)
          ~n:n_traced;
        m "machine.host_ns_per_instr" "ns"
          (ratio (per_pass "runtime.invoke" (fun l -> self_s l *. 1e9)) instr)
          ~n:n_traced;
        m "machine.minor_words_per_kinstr" "words"
          (ratio (per_pass "runtime.invoke" minor) (instr /. 1000.0))
          ~n:n_traced;
        m "faas.host_us_per_req" "us" (ratio (faas (fun l -> self_s l *. 1e6)) reqs) ~n:n_traced;
        m "faas.minor_words_per_req" "words" (ratio (faas minor) reqs) ~n:n_traced;
        m "faas.major_words_per_req" "words"
          (ratio (faas (fun l -> l.Spans.total_self_major)) reqs)
          ~n:n_traced;
        m "bench.layer_coverage" "ratio"
          (List.fold_left (fun acc name -> acc +. share name) 0.0 timed_layers)
          ~n:n_traced;
        m "bench.trace_overhead_pct" "%"
          (if n_traced = 0 then 0.0 else ((Stats.median !traced_walls /. wall_s) -. 1.0) *. 100.0)
          ~n:n_traced;
        m "bench.wall_spread" "ratio" (ratio (q3 -. q1) wall_s) ~clock:"host-norm";
        m "host.raw_wall_s" "s" (Stats.median !raw_walls);
        m "host.raw_setup_s" "s" (Stats.median (List.map (fun (_, r, _) -> r) setups)) ~n:setup_reps;
        m "host.calib_ms" "ms" (1000.0 *. Stats.median meter.Calib.calibs) ~n:(List.length meter.Calib.calibs);
        m "faas.synthesize_s" "s" (setup_layer "faas.synthesize") ~n:setup_reps;
        m "wasm.interp_s" "s" (setup_layer "wasm.interp") ~n:setup_reps;
        m "cold_start_p50_us" "us" (if ns = 0 then 0.0 else Stats.median !samples) ~n:ns;
        m "cold_start_p99_us" "us" tail_v ~n:ns ~clock:("host " ^ tail_p);
      ]
    @ List.map (fun (name, unit_, clock) -> m name unit_ (count name) ~clock ~n:!passes) counts
  in
  {
    failures = List.rev !failures;
    attempted = max 1 !attempted;
    e2e;
    per_layer;
    fingerprint = Option.value !fingerprint ~default:0L;
    spans;
  }
