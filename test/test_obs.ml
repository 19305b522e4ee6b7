(* Tests for the observability plane: log-bucketed histograms with
   exemplars, SLO burn-rate alerting, the fault flight recorder, tail
   rings and tees, ring-overflow accounting, Prometheus exposition
   hygiene, and the fixed-width `sfi top` table. *)

module Hist = Sfi_util.Hist
module Stats = Sfi_util.Stats
module Prng = Sfi_util.Prng
module Trace = Sfi_trace.Trace
module Flight = Sfi_trace.Flight
module Slo = Sfi_faas.Slo
module Sim = Sfi_faas.Sim
module Shard = Sfi_faas.Shard
module Chaos = Sfi_inject.Chaos
module Kernel = Sfi_workloads.Kernel
module Runtime = Sfi_runtime.Runtime
module Machine = Sfi_machine.Machine

(* --- histogram vs exact percentiles -------------------------------- *)

(* The histogram's percentile mirrors Stats.percentile's rank semantics
   with each order statistic quantized to its bucket midpoint. With
   [sub] sub-buckets per octave a bucket at magnitude v is at most
   v / sub wide, so the interpolated answer stays within one bucket
   width of the exact sorted-array result at that magnitude. *)
let prop_hist_percentile_close =
  QCheck.Test.make ~name:"hist percentile within one bucket width of Stats.percentile"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (float_range 1e-3 1e12))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let h = Hist.create () in
      List.iter (Hist.record h) xs;
      let exact = Stats.percentile xs p in
      let approx = Hist.percentile h p in
      let tol =
        Float.max (Hist.bucket_width_at h exact)
          (exact /. float_of_int (Hist.sub_buckets h))
        +. 1e-9
      in
      Float.abs (approx -. exact) <= tol)

(* A histogram buckets a sample by reading its IEEE exponent and mantissa
   fields. The reference is the frexp formula those fields stand for: a
   single sample's percentile is its bucket's midpoint, so the two must
   agree on every positive double, at bucket edges, in the zero bucket
   and in the clamped top bucket. *)
let frexp_midpoint ~sub v =
  let e_min = -20 and e_max = 63 in
  if not (v > 0.0) then 0.0
  else
    let m, e = Float.frexp v in
    let s = int_of_float ((m -. 0.5) *. 2.0 *. float_of_int sub) in
    let s = if s >= sub then sub - 1 else s in
    let e, s = if e < e_min then (e_min - 1, -1) else if e > e_max then (e_max, sub - 1) else (e, s) in
    if s < 0 then 0.0
    else Float.ldexp (0.5 +. ((float_of_int s +. 0.5) /. (2.0 *. float_of_int sub))) e

let prop_hist_bucket_matches_frexp =
  let gen =
    QCheck.Gen.(
      pair (oneofl [ 1; 2; 16; 64 ])
        (oneof
           [
             map Int64.float_of_bits (map Int64.abs ui64);
             float_range 1e-9 1e6;
             map (fun (k, e) -> Float.ldexp (float_of_int k) e) (pair (int_range 1 64) (int_range (-40) 70));
           ]))
  in
  QCheck.Test.make ~name:"hist bucket from IEEE fields matches frexp" ~count:2000
    (QCheck.make ~print:(fun (sub, v) -> Printf.sprintf "sub %d, %h" sub v) gen)
    (fun (sub, v) ->
      QCheck.assume (Float.is_finite v && v >= 0.0);
      let h = Hist.create ~sub () in
      Hist.record h v;
      Hist.percentile h 50.0 = frexp_midpoint ~sub v)

let hist_digest h =
  ( Hist.count h,
    Hist.total h,
    Hist.percentile h 50.0,
    Hist.percentile h 99.0,
    match Hist.exemplar_at h 0.0 with
    | Some e -> (e.Hist.ex_value, e.Hist.ex_index)
    | None -> (0.0, -1) )

let prop_hist_merge_assoc_commut =
  QCheck.Test.make ~name:"hist merge is associative and commutative" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(int_range 0 50) (float_range 1e-3 1e9))
        (list_of_size Gen.(int_range 1 50) (float_range 1e-3 1e9))
        (list_of_size Gen.(int_range 0 50) (float_range 1e-3 1e9)))
    (fun (a, b, c) ->
      let build off xs =
        let h = Hist.create () in
        List.iteri (fun i v -> Hist.record_exemplar h v ~index:(off + i)) xs;
        h
      in
      let ha () = build 0 a and hb () = build 1000 b and hc () = build 2000 c in
      (* (a + b) + c *)
      let left = ha () in
      let ab = ha () in
      Hist.merge ab (hb ());
      Hist.merge left (hb ());
      Hist.merge left (hc ());
      (* a + (b + c) *)
      let bc = hb () in
      Hist.merge bc (hc ());
      let right = ha () in
      Hist.merge right bc;
      (* b + a *)
      let ba = hb () in
      Hist.merge ba (ha ());
      let close (c1, t1, p50a, p99a, ex1) (c2, t2, p50b, p99b, ex2) =
        c1 = c2
        && Float.abs (t1 -. t2) <= 1e-6 *. Float.max 1.0 (Float.abs t1)
        && p50a = p50b && p99a = p99b && ex1 = ex2
      in
      close (hist_digest left) (hist_digest right)
      && close (hist_digest ab) (hist_digest ba))

let test_hist_zero_and_edge () =
  let h = Hist.create () in
  Alcotest.check_raises "empty percentile raises"
    (Invalid_argument "Hist.percentile: empty histogram") (fun () ->
      ignore (Hist.percentile h 50.0));
  Hist.record h 0.0;
  Hist.record h (-3.0);
  Alcotest.(check int) "zero/negative samples counted" 2 (Hist.count h);
  Alcotest.(check (float 0.0)) "zero bucket reports 0" 0.0 (Hist.percentile h 50.0);
  let h1 = Hist.create () in
  Hist.record h1 12345.0;
  let p = Hist.percentile h1 77.0 in
  Alcotest.(check bool) "single sample within its bucket" true
    (Float.abs (p -. 12345.0) <= Hist.bucket_width_at h1 12345.0)

let test_hist_exemplar_seal_and_merge_mismatch () =
  let h = Hist.create () in
  Hist.record_exemplar h 500.0 ~index:3;
  Hist.record_exemplar h 800.0 ~index:7;
  Hist.seal_exemplars h 0xFEEDL;
  (match Hist.exemplar_at h 99.0 with
  | Some e ->
      Alcotest.(check int64) "sealed ref" 0xFEEDL e.Hist.ex_ref;
      Alcotest.(check (float 0.0)) "largest value wins" 800.0 e.Hist.ex_value;
      Alcotest.(check int) "winning index" 7 e.Hist.ex_index
  | None -> Alcotest.fail "exemplar expected");
  let coarse = Hist.create ~sub:8 () in
  Alcotest.check_raises "sub mismatch refuses to merge"
    (Invalid_argument "Hist.merge: sub-bucket counts differ") (fun () ->
      Hist.merge h coarse)

(* --- histogram vs a dense reference -------------------------------- *)

(* A dense reference: one count and one exemplar slot for every bucket,
   allocated up front, buckets found with [Float.frexp]. The windowed
   histogram must answer every query exactly as this one does. *)
module Dense = struct
  let e_min = -20
  let e_max = 63

  type t = {
    sub : int;
    counts : int array;
    ex : Hist.exemplar option array;
    mutable n : int;
    mutable sum : float;
  }

  let create sub =
    let slots = 1 + ((e_max - e_min + 1) * sub) in
    { sub; counts = Array.make slots 0; ex = Array.make slots None; n = 0; sum = 0.0 }

  let top d = Array.length d.counts - 1

  let index d v =
    if not (v > 0.0) then 0
    else if v = Float.infinity then top d
    else
      let m, e = Float.frexp v in
      if e < e_min then 0
      else if e > e_max then top d
      else 1 + ((e - e_min) * d.sub) + int_of_float ((m -. 0.5) *. 2.0 *. float_of_int d.sub)

  let representative d i =
    if i = 0 then 0.0
    else
      let e = e_min + ((i - 1) / d.sub) and s = (i - 1) mod d.sub in
      Float.ldexp (0.5 +. ((float_of_int s +. 0.5) /. (2.0 *. float_of_int d.sub))) e

  let width d v =
    let i = index d v in
    if i = 0 then Float.ldexp 1.0 (e_min - 1)
    else Float.ldexp (1.0 /. (2.0 *. float_of_int d.sub)) (e_min + ((i - 1) / d.sub))

  let better (a : Hist.exemplar) (b : Hist.exemplar) =
    if a.ex_value <> b.ex_value then a.ex_value > b.ex_value
    else if a.ex_index <> b.ex_index then a.ex_index > b.ex_index
    else Int64.unsigned_compare a.ex_ref b.ex_ref > 0

  let offer d i ex =
    match d.ex.(i) with Some cur when not (better ex cur) -> () | _ -> d.ex.(i) <- Some ex

  let record d v ~index:k =
    let i = index d v in
    d.counts.(i) <- d.counts.(i) + 1;
    d.n <- d.n + 1;
    d.sum <- d.sum +. v;
    offer d i { Hist.ex_value = v; ex_ref = 0L; ex_index = k }

  let seal d fp =
    Array.iteri
      (fun i ex ->
        match ex with
        | Some e when e.Hist.ex_ref = 0L -> d.ex.(i) <- Some { e with ex_ref = fp }
        | _ -> ())
      d.ex

  let slot_at_order d k =
    let rec go i acc =
      let acc = acc + d.counts.(i) in
      if acc > k || i = top d then i else go (i + 1) acc
    in
    go 0 0

  let order d r = max 0 (min (d.n - 1) r)

  let percentile d p =
    let rank = p /. 100.0 *. float_of_int (d.n - 1) in
    let lo = order d (int_of_float (Float.floor rank)) in
    let hi = order d (int_of_float (Float.ceil rank)) in
    let vlo = representative d (slot_at_order d lo) in
    if d.n = 1 || lo = hi then vlo
    else
      let vhi = representative d (slot_at_order d hi) in
      vlo +. ((rank -. Float.floor rank) *. (vhi -. vlo))

  let exemplar_at d p =
    if d.n = 0 then None
    else
      let rank = if d.n = 1 then 0.0 else p /. 100.0 *. float_of_int (d.n - 1) in
      let rec scan i = if i > top d then None else match d.ex.(i) with None -> scan (i + 1) | ex -> ex in
      scan (slot_at_order d (order d (int_of_float (Float.ceil rank))))

  let merge dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n;
    dst.sum <- dst.sum +. src.sum;
    Array.iteri (fun i ex -> Option.iter (offer dst i) ex) src.ex

  let copy d = { d with counts = Array.copy d.counts; ex = Array.copy d.ex }
end

(* Samples from a window of octaves [2^lo, 2^(lo + span)), or from the
   zero bucket (zeros, negatives, values below the lowest octave) or the
   top one (past the highest octave, infinity). Two histograms' windows
   are drawn so that they are disjoint, nested or arbitrary. *)
let hist_window_gen =
  let open QCheck.Gen in
  let zero = oneofl [ 0.0; -3.0; 1e-310; 1e-7; Float.neg_infinity ] in
  let top = oneofl [ 1e19; 1e300; Float.max_float; Float.infinity ] in
  let sample (lo, span) =
    frequency
      [
        (8, map2 (fun e f -> Float.ldexp (1.0 +. f) e) (int_range lo (lo + span)) (float_bound_exclusive 1.0));
        (1, zero);
        (1, top);
      ]
  in
  let window = pair (int_range (-22) 62) (int_range 0 4) in
  let related (lo, span) =
    oneof
      [
        (* nested *)
        map2 (fun d s -> (lo + min d span, min s (span - min d span))) (int_bound 4) (int_bound 4);
        (* disjoint, above or below *)
        map (fun d -> if lo + span + d + 1 <= 62 then (lo + span + d + 1, 0) else (lo - d - 2, 0)) (int_bound 8);
        window;
      ]
  in
  window >>= fun wa ->
  related wa >>= fun wb ->
  triple (oneofl [ 1; 16 ])
    (list_size (int_range 0 40) (sample wa))
    (list_size (int_range 0 40) (sample wb))

let prop_hist_matches_dense =
  let ps = [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
  QCheck.Test.make ~name:"hist matches a dense reference histogram" ~count:500
    (QCheck.make
       ~print:(fun (sub, a, b) ->
         let l xs = String.concat " " (List.map (Printf.sprintf "%h") xs) in
         Printf.sprintf "sub %d\na: %s\nb: %s" sub (l a) (l b))
       hist_window_gen)
    (fun (sub, a, b) ->
      let build off xs =
        let h = Hist.create ~sub () and d = Dense.create sub in
        List.iteri
          (fun i v ->
            Hist.record_exemplar h v ~index:(off + i);
            Dense.record d v ~index:(off + i))
          xs;
        (h, d)
      in
      let same (h, d) =
        Hist.count h = d.Dense.n
        && Float.equal (Hist.total h) d.Dense.sum
        && List.for_all
             (fun p ->
               Hist.exemplar_at h p = Dense.exemplar_at d p
               && (d.Dense.n = 0 || Hist.percentile h p = Dense.percentile d p))
             ps
        && List.for_all (fun v -> Hist.bucket_width_at h v = Dense.width d v) (a @ b)
      in
      let ha, da = build 0 a and hb, db = build 1000 b in
      Hist.seal_exemplars hb 0xB0BL;
      Dense.seal db 0xB0BL;
      let ha' = Hist.copy ha and da' = Dense.copy da in
      let empty = Hist.create ~sub () and dempty = Dense.create sub in
      Hist.merge empty hb;
      Dense.merge dempty db;
      Hist.merge ha hb;
      Dense.merge da db;
      Hist.merge hb ha';
      Dense.merge db da';
      same (ha, da) && same (hb, db) && same (empty, dempty) && same (ha', da'))

(* A histogram pays for the octaves it records, not for the 1,345 buckets
   it could: ten samples in one octave fit in a counts array of 17 words.
   Both what recording allocates and what the histogram holds are counted,
   since an array over 256 words would bypass the minor heap. *)
let test_hist_small_footprint () =
  let w0 = Gc.minor_words () in
  let h = Hist.create () in
  for i = 0 to 9 do
    Hist.record h (1100.0 +. float_of_int i)
  done;
  let allocated = Gc.minor_words () -. w0 in
  let held = Obj.reachable_words (Obj.repr h) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated, %d held, both < 200" allocated held)
    true
    (allocated < 200.0 && held < 200)

(* --- Stats.percentile edge cases ----------------------------------- *)

let test_stats_percentile_edges () =
  Alcotest.check_raises "empty list raises"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile [] 50.0));
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "singleton at p=%.0f" p)
        42.0
        (Stats.percentile [ 42.0 ] p))
    [ 0.0; 37.0; 100.0 ];
  (* Duplicate-heavy: 99 copies of 1.0 and a single outlier. *)
  let xs = List.init 99 (fun _ -> 1.0) @ [ 100.0 ] in
  Alcotest.(check (float 1e-9)) "median of duplicates" 1.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100 is the outlier" 100.0 (Stats.percentile xs 100.0);
  Alcotest.(check bool) "p99 interpolates toward the outlier" true
    (Stats.percentile xs 99.0 > 1.0)

(* --- trace ring overflow accounting -------------------------------- *)

let test_ring_overflow_keep_first () =
  let t = Trace.create_ring ~capacity:8 () in
  for i = 0 to 19 do
    Trace.pkru_write t ~value:i
  done;
  Alcotest.(check int) "keeps capacity events" 8 (Trace.length t);
  Alcotest.(check int) "dropped is exact" 12 (Trace.dropped t);
  let evs = Trace.events t in
  Alcotest.(check int) "first events retained" 0 (List.hd evs).Trace.ev_a0;
  Alcotest.(check int) "eighth event retained" 7
    (List.nth evs 7).Trace.ev_a0

let test_tail_ring_keep_last () =
  let t = Trace.create_tail_ring ~capacity:8 () in
  for i = 0 to 19 do
    Trace.pkru_write t ~value:i
  done;
  Alcotest.(check int) "keeps capacity events" 8 (Trace.length t);
  Alcotest.(check int) "overwritten count as dropped" 12 (Trace.dropped t);
  let evs = Trace.events t in
  Alcotest.(check int) "oldest retained is event 12" 12 (List.hd evs).Trace.ev_a0;
  Alcotest.(check int) "newest retained is event 19" 19
    (List.nth evs 7).Trace.ev_a0;
  Alcotest.(check bool) "logical order validates" true
    (Trace.validate t = Ok ())

let test_tee_forwards_with_shared_timestamp () =
  let primary = Trace.create_ring ~capacity:4 () in
  let tail = Trace.create_tail_ring ~capacity:8 () in
  let now = ref 0 in
  Trace.set_clock primary (fun () -> !now);
  Trace.set_tee primary (Some tail);
  for i = 0 to 9 do
    now := 100 * i;
    Trace.pkru_write primary ~value:i
  done;
  Alcotest.(check int) "primary keeps first 4" 4 (Trace.length primary);
  Alcotest.(check int) "primary dropped 6" 6 (Trace.dropped primary);
  Alcotest.(check int) "tail keeps last 8" 8 (Trace.length tail);
  let tl = Trace.events tail in
  Alcotest.(check int) "tail sees events the primary dropped" 9
    (List.nth tl 7).Trace.ev_a0;
  Alcotest.(check int) "tee shares the primary's timestamp" 900
    (List.nth tl 7).Trace.ev_ts

(* --- merge_shards: drop summing and determinism --------------------- *)

let prop_merge_shards_drops_and_fingerprint =
  QCheck.Test.make ~name:"merge_shards sums drops, deterministic fingerprint"
    ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let make_shard () =
        (* Tiny capacity so some shards overflow and drop. *)
        let cap = 4 + Prng.int rng 8 in
        let t = Trace.create_ring ~capacity:cap () in
        let now = ref 0 in
        Trace.set_clock t (fun () -> !now);
        let n = Prng.int rng 24 in
        for _ = 1 to n do
          now := !now + Prng.int rng 50;
          match Prng.int rng 3 with
          | 0 -> Trace.pkru_write t ~value:(Prng.int rng 100)
          | 1 -> Trace.tlb_fill t ~page:(Prng.int rng 100)
          | _ -> Trace.instantiate t ~sandbox:(Prng.int rng 3) ~warm:true
        done;
        t
      in
      let shards = List.init 3 (fun _ -> make_shard ()) in
      let merged = Trace.merge_shards shards in
      let drop_sum = List.fold_left (fun a t -> a + Trace.dropped t) 0 shards in
      Trace.dropped merged = drop_sum
      && Trace.length merged = List.fold_left (fun a t -> a + Trace.length t) 0 shards
      && Trace.fingerprint merged
         = Trace.fingerprint (Trace.merge_shards shards)
      && Trace.validate merged = Ok ())

(* --- SLO burn-rate engine ------------------------------------------- *)

let slo_cfg =
  Slo.default_config ~latency_ns:1000.0 ~availability:0.9 ~fast_window_ns:1000.0
    ~slow_window_ns:8000.0 ~fast_burn:5.0 ~slow_burn:2.0 ()

let test_slo_burn_raises_and_clears () =
  let s = Slo.create slo_cfg in
  Alcotest.(check bool) "quiet tracker not alerting" false (Slo.alerting s Slo.Fast);
  (* All-bad traffic: bad fraction 1.0 against a 0.1 budget = burn 10. *)
  for i = 0 to 9 do
    Slo.record s ~now:(float_of_int (i * 50)) ~good:false
  done;
  Alcotest.(check (float 1e-9)) "burn = bad_fraction / budget" 10.0
    (Slo.burn s ~now:450.0 Slo.Fast);
  let trs = Slo.evaluate s ~now:450.0 in
  Alcotest.(check bool) "fast alert raised" true
    (List.exists (fun tr -> tr.Slo.tr_window = Slo.Fast && tr.Slo.tr_started) trs);
  Alcotest.(check bool) "alerting after raise" true (Slo.alerting s Slo.Fast);
  (* Edge-triggered: evaluating again at the same burn reports nothing. *)
  Alcotest.(check int) "no duplicate transitions" 0
    (List.length (Slo.evaluate s ~now:460.0));
  (* The window slides through an idle gap: far in the future every
     sub-bucket is stale, burn reads 0 and the alert clears. *)
  let trs = Slo.evaluate s ~now:1_000_000.0 in
  Alcotest.(check bool) "fast alert cleared after idle gap" true
    (List.exists (fun tr -> tr.Slo.tr_window = Slo.Fast && not tr.Slo.tr_started) trs);
  Alcotest.(check bool) "not alerting at quiescence" false (Slo.alerting s Slo.Fast)

let test_slo_good_traffic_never_alerts () =
  let s = Slo.create slo_cfg in
  for i = 0 to 99 do
    Slo.record s ~now:(float_of_int (i * 10)) ~good:true
  done;
  Alcotest.(check int) "no transitions on good traffic" 0
    (List.length (Slo.evaluate s ~now:1000.0));
  Alcotest.(check (float 1e-9)) "burn 0 on good traffic" 0.0
    (Slo.burn s ~now:1000.0 Slo.Fast)

(* --- flight recorder ------------------------------------------------ *)

let test_flight_untraced_tap_and_freeze () =
  let fr = Flight.create ~capacity:4 () in
  let sink = Flight.tap fr Trace.null in
  Alcotest.(check bool) "tail ring becomes the effective sink" true
    (Trace.enabled sink);
  for i = 0 to 5 do
    Trace.pkru_write sink ~value:i
  done;
  Flight.freeze fr ~reason:"fault" ~at_ns:123 ~counters:[ ("completed", 9.0) ];
  (match Flight.find fr "fault" with
  | None -> Alcotest.fail "bundle expected"
  | Some b ->
      Alcotest.(check int) "bundle keeps last capacity events" 4
        (List.length b.Flight.b_events);
      Alcotest.(check int) "scrolled-out events reported" 2 b.Flight.b_dropped;
      Alcotest.(check int) "freeze time recorded" 123 b.Flight.b_at_ns;
      Alcotest.(check (float 0.0)) "counters snapshotted" 9.0
        (List.assoc "completed" b.Flight.b_counters);
      Alcotest.(check int) "newest event in the tail" 5
        (List.nth b.Flight.b_events 3).Trace.ev_a0);
  Flight.freeze fr ~reason:"fault" ~at_ns:456 ~counters:[];
  Alcotest.(check int) "latest bundle per reason" 1
    (List.length (Flight.bundles fr));
  Alcotest.(check int) "freeze ordinal still advances" 2 (Flight.freezes fr);
  match Flight.find fr "fault" with
  | Some b -> Alcotest.(check int) "replacement kept" 456 b.Flight.b_at_ns
  | None -> Alcotest.fail "bundle expected"

let test_flight_tap_tees_enabled_primary () =
  let fr = Flight.create ~capacity:4 () in
  let primary = Trace.create_ring ~capacity:64 () in
  let sink = Flight.tap fr primary in
  Alcotest.(check bool) "enabled primary stays the sink" true (sink == primary);
  for i = 0 to 9 do
    Trace.pkru_write sink ~value:i
  done;
  Flight.freeze fr ~reason:"breaker.open" ~at_ns:0 ~counters:[];
  match Flight.find fr "breaker.open" with
  | Some b ->
      Alcotest.(check int) "recorder shadowed the primary" 4
        (List.length b.Flight.b_events);
      Alcotest.(check int) "tail holds the newest events" 9
        (List.nth b.Flight.b_events 3).Trace.ev_a0
  | None -> Alcotest.fail "bundle expected"

(* --- sim: tracing + recorder are pure observers --------------------- *)

(* Traced-vs-untraced bit-identity with the full observability plane
   armed: histograms always on, SLOs tracking, flight recorder frozen by
   real faults. The result fingerprint covers every counter, rate,
   percentile and burn value, so any behavioral leak from the observers
   shows up here. Pinned on both execution engines. *)
let check_sim_observers_bit_identical engine =
  let overload =
    {
      Sim.no_overload with
      Sim.pool_slots = Some 8;
      admission = Some Runtime.default_admission;
      breaker = Some Sfi_faas.Breaker.default_config;
      slo = Some (Slo.default_config ());
    }
  in
  let faults = { Sim.no_faults with Sim.trap_rate = 0.05 } in
  let cfg =
    {
      (Sim.default_config ~overload ~faults ~churn:true ~fair_scheduling:true
         ~engine ())
      with
      Sim.concurrency = 16;
      duration_ns = 3.0e6;
      io_mean_ns = 200_000.0;
      epoch_ns = 10_000.0;
    }
  in
  let plain = Sim.run cfg in
  let ring = Trace.create_ring ~capacity:4096 () in
  let fr = Flight.create () in
  let observed = Sim.run { cfg with Sim.trace = ring; flight = Some fr } in
  Alcotest.(check int64) "observers never change the result"
    (Shard.result_fingerprint plain)
    (Shard.result_fingerprint observed);
  Alcotest.(check int64) "checksum identical" plain.Sim.checksum observed.Sim.checksum;
  Alcotest.(check bool) "the run had faults to record" true (observed.Sim.failed > 0);
  Alcotest.(check bool) "flight recorder froze a fault bundle" true
    (match Flight.find fr "fault" with
    | Some b -> b.Flight.b_events <> []
    | None -> false)

(* The compiled engine runs closure-threaded code, hence the case name. *)
let test_sim_observers_bit_identical_compiled () =
  check_sim_observers_bit_identical Machine.Compiled

let test_sim_observers_bit_identical_reference () =
  check_sim_observers_bit_identical Machine.Reference

(* --- chaos: a post-mortem for every fault class --------------------- *)

let test_chaos_postmortems_nonempty () =
  let fr = Flight.create () in
  let cfg =
    {
      (Chaos.default_config ~seed:0xF11EL ~perturbations:40 ()) with
      Chaos.duration_ns = 15.0e6;
      concurrency = 32;
    }
  in
  let r = Chaos.run ~flight:fr cfg in
  (match r.Chaos.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "chaos violation [%d] %s: %s" v.Chaos.v_index v.Chaos.v_kind
        v.Chaos.v_detail);
  (* The harness already enforces the per-class bundle invariant as a
     violation; re-check the bundles directly so this pin stands even if
     the harness's own check regresses. *)
  List.iter
    (fun cls ->
      match Flight.find fr cls with
      | Some b ->
          Alcotest.(check bool) (cls ^ " bundle non-empty") true
            (b.Flight.b_events <> []);
          Alcotest.(check bool) (cls ^ " counters snapshotted") true
            (List.mem_assoc "chaos_applied" b.Flight.b_counters)
      | None -> Alcotest.failf "no post-mortem bundle for %s" cls)
    [ "chaos.kill"; "chaos.latency"; "chaos.instantiate_fail" ];
  Alcotest.(check bool) "renders a readable post-mortem" true
    (match Flight.find fr "chaos.kill" with
    | Some b ->
        let s = Flight.render b in
        String.length s > 0
    | None -> false)

(* --- sfi top table: golden fixed-width output ----------------------- *)

let top_stat =
  {
    Sim.t_id = 7;
    t_completed = 1234;
    t_failed = 5;
    t_shed = 6;
    t_breaker_opens = 2;
    t_breaker_state = "open";
    t_p50_ns = 1.5e6;
    t_p95_ns = 2.25e6;
    t_p99_ns = 9.875e6;
    t_p99_e2e_ns = 10.0e6;
    t_sb_share = 0.995;
    t_burn = 3.21;
    t_lat_hist = Hist.create ();
    t_e2e_hist = Hist.create ();
  }

let test_top_golden_breakers () =
  Alcotest.(check string) "breaker-mode header"
    "TENANT       OK   FAIL   SHED  BRKOPEN        BRK    BURN    P50(ms)    \
     P95(ms)    P99(ms)    SB%"
    (Sim.top_header ~breakers:true);
  Alcotest.(check string) "breaker-mode row"
    "     7     1234      5      6        2       open    3.21       1.50       \
     2.25       9.88  99.5%"
    (Sim.top_row ~breakers:true top_stat);
  Alcotest.(check int) "row aligns under header"
    (String.length (Sim.top_header ~breakers:true))
    (String.length (Sim.top_row ~breakers:true top_stat))

let test_top_golden_plain () =
  Alcotest.(check string) "plain header"
    "TENANT       OK   FAIL    P50(ms)    P95(ms)    P99(ms)    SB%"
    (Sim.top_header ~breakers:false);
  Alcotest.(check string) "plain row"
    "     7     1234      5       1.50       2.25       9.88  99.5%"
    (Sim.top_row ~breakers:false top_stat);
  Alcotest.(check int) "row aligns under header"
    (String.length (Sim.top_header ~breakers:false))
    (String.length (Sim.top_row ~breakers:false top_stat))

(* --- Prometheus exposition hygiene ---------------------------------- *)

(* Lint one exposition document: every metric has # HELP and # TYPE
   headers before its sample, names are legal, samples parse as floats,
   and nothing else appears. *)
let lint_exposition text =
  let legal_name n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n
  in
  let helped = Hashtbl.create 16 and typed = Hashtbl.create 16 in
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | "#" :: "HELP" :: name :: _rest ->
             if not (legal_name name) then Alcotest.failf "bad HELP name: %s" line;
             Hashtbl.replace helped name ()
         | "#" :: "TYPE" :: name :: [ "gauge" ] ->
             if not (legal_name name) then Alcotest.failf "bad TYPE name: %s" line;
             Hashtbl.replace typed name ()
         | [ sample; value ] ->
             let name =
               match String.index_opt sample '{' with
               | Some i -> String.sub sample 0 i
               | None -> sample
             in
             if not (legal_name name) then Alcotest.failf "bad metric name: %s" line;
             if not (Hashtbl.mem helped name) then
               Alcotest.failf "sample before # HELP: %s" line;
             if not (Hashtbl.mem typed name) then
               Alcotest.failf "sample before # TYPE: %s" line;
             if Float.is_nan (float_of_string value) then
               Alcotest.failf "NaN sample: %s" line
         | _ -> Alcotest.failf "unparseable exposition line: %s" line)

(* The exact gauge set `sfi run --metrics-out` writes for one kernel. *)
let kernel_gauges =
  lazy
    (Runtime.reset_domain_metrics ();
     let m = Kernel.run ~strategy:Sfi_core.Strategy.segue Sfi_workloads.Sightglass.gimli in
     Kernel.prometheus_gauges m (Runtime.domain_metrics ()))

let test_prometheus_lint_kernel_gauges () =
  let gauges = Lazy.force kernel_gauges in
  Alcotest.(check bool) "covers machine and runtime counters" true
    (List.length gauges >= 20);
  lint_exposition (Trace.prometheus gauges)

(* Escaped HELP text keeps the document lint-clean: a newline or backslash
   in a help string stays inside its one HELP line, a double quote is
   left as is (the format escapes it only inside label values, which this
   exporter does not write), and a second sample of the same name follows
   the shared header. *)
let test_prometheus_labeled_escaping () =
  let help = "a \"quoted\" back\\slash\nwith newline" in
  let text = Trace.prometheus [ ("sfi_demo", help, 1.0); ("sfi_demo", help, 2.0) ] in
  lint_exposition text;
  Alcotest.(check (list string)) "exposition lines"
    [
      "# HELP sfi_demo a \"quoted\" back\\\\slash\\nwith newline";
      "# TYPE sfi_demo gauge";
      "sfi_demo 1";
      "sfi_demo 2";
      "";
    ]
    (String.split_on_char '\n' text)

(* Every runtime counter is exported once, under its own gauge name and a
   help text that says more than the name. *)
let test_prometheus_gauge_per_counter () =
  let gauges = Lazy.force kernel_gauges in
  List.iter
    (fun (name, _, _) ->
      let gauge = "sfi_" ^ name ^ "_total" in
      match List.filter (fun (g, _, _) -> g = gauge) gauges with
      | [ (_, help, _) ] ->
          if help = name || help = gauge then
            Alcotest.failf "%s: help text is its bare name" gauge
      | l -> Alcotest.failf "%s exported %d times" gauge (List.length l))
    Runtime.counters;
  let names = List.map (fun (g, _, _) -> g) gauges in
  Alcotest.(check int) "gauge names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The gauge set `sfi chaos --metrics-out` writes for a short seeded
   run: lint-clean, one gauge per [Sim.counters] entry holding that
   entry's value, and no name twice. *)
let test_prometheus_lint_chaos_gauges () =
  let cfg =
    {
      (Chaos.default_config ~seed:0xC4A05L ~perturbations:10 ()) with
      Chaos.duration_ns = 5.0e6;
      concurrency = 16;
    }
  in
  let sim = (Chaos.run cfg).Chaos.sim in
  let gauges = Sim.prometheus_gauges sim in
  lint_exposition (Trace.prometheus gauges);
  List.iter
    (fun (name, _, get) ->
      let gauge, v =
        match get with
        | Sim.Int f -> ("sfi_" ^ name ^ "_total", float_of_int (f sim))
        | Sim.Float f -> ("sfi_" ^ name, f sim)
      in
      match List.filter (fun (g, _, _) -> g = gauge) gauges with
      | [ (_, _, got) ] -> Alcotest.(check (float 0.0)) gauge v got
      | l -> Alcotest.failf "%s exported %d times" gauge (List.length l))
    Sim.counters;
  Alcotest.(check int) "one gauge per counter" (List.length Sim.counters) (List.length gauges);
  let names = List.map (fun (g, _, _) -> g) gauges in
  Alcotest.(check int) "gauge names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_hist_percentile_close;
    QCheck_alcotest.to_alcotest prop_hist_bucket_matches_frexp;
    QCheck_alcotest.to_alcotest prop_hist_merge_assoc_commut;
    Harness.case "hist zero bucket and single sample" test_hist_zero_and_edge;
    Harness.case "hist exemplar seal, merge mismatch"
      test_hist_exemplar_seal_and_merge_mismatch;
    QCheck_alcotest.to_alcotest prop_hist_matches_dense;
    Harness.case "hist allocates for the octaves it records" test_hist_small_footprint;
    Harness.case "stats percentile edge cases" test_stats_percentile_edges;
    Harness.case "ring overflow keeps first, counts dropped"
      test_ring_overflow_keep_first;
    Harness.case "tail ring keeps last, counts overwrites" test_tail_ring_keep_last;
    Harness.case "tee forwards with shared timestamp"
      test_tee_forwards_with_shared_timestamp;
    QCheck_alcotest.to_alcotest prop_merge_shards_drops_and_fingerprint;
    Harness.case "slo burn raises and clears" test_slo_burn_raises_and_clears;
    Harness.case "slo good traffic never alerts" test_slo_good_traffic_never_alerts;
    Harness.case "flight untraced tap and freeze" test_flight_untraced_tap_and_freeze;
    Harness.case "flight taps an enabled primary" test_flight_tap_tees_enabled_primary;
    Harness.case "sim observers bit-identical (threaded)"
      test_sim_observers_bit_identical_compiled;
    Harness.case "sim observers bit-identical (reference)"
      test_sim_observers_bit_identical_reference;
    Harness.case "chaos freezes a post-mortem per fault class"
      test_chaos_postmortems_nonempty;
    Harness.case "top golden output (breakers)" test_top_golden_breakers;
    Harness.case "top golden output (plain)" test_top_golden_plain;
    Harness.case "prometheus lint over kernel gauges"
      test_prometheus_lint_kernel_gauges;
    Harness.case "prometheus labeled escaping" test_prometheus_labeled_escaping;
    Harness.case "prometheus gauge per runtime counter" test_prometheus_gauge_per_counter;
    Harness.case "prometheus lint over chaos gauges" test_prometheus_lint_chaos_gauges;
  ]
