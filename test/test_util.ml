(* Unit and property tests for the shared utilities. *)

module Prng = Sfi_util.Prng
module Stats = Sfi_util.Stats
module Units = Sfi_util.Units
module Table = Sfi_util.Table
module Vec = Sfi_util.Vec

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.create ~seed:43L in
  Alcotest.(check bool) "different seed, different stream" false
    (Prng.next_int64 (Prng.create ~seed:42L) = Prng.next_int64 c)

let test_prng_copy () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_ranges () =
  let t = Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let v = Prng.int_in t 5 9 in
    Alcotest.(check bool) "int_in inclusive" true (v >= 5 && v <= 9);
    let f = Prng.float t 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_distributions () =
  let t = Prng.create ~seed:99L in
  let n = 20000 in
  let exp_sum = ref 0.0 and poi_sum = ref 0 in
  for _ = 1 to n do
    exp_sum := !exp_sum +. Prng.exponential t ~mean:5.0;
    poi_sum := !poi_sum + Prng.poisson t ~mean:5.0
  done;
  let exp_mean = !exp_sum /. float_of_int n in
  let poi_mean = float_of_int !poi_sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean ~5" true (exp_mean > 4.6 && exp_mean < 5.4);
  Alcotest.(check bool) "poisson mean ~5" true (poi_mean > 4.6 && poi_mean < 5.4);
  (* large-mean path uses the normal approximation *)
  let big = Prng.poisson t ~mean:5000.0 in
  Alcotest.(check bool) "poisson large mean plausible" true (big > 4000 && big < 6000)

(* Uniformity near the top of the draw range. [Prng.int] draws 62 raw
   bits; with [bound = 3 * 2^60] the final block [3*2^60, 4*2^60) is
   incomplete, so plain modulo reduction would map it back onto
   [0, 2^60) and double that third's frequency: P(v < bound/3) would be
   1/2 instead of 1/3. Rejection sampling must keep it at 1/3. *)
let test_prng_uniformity () =
  let t = Prng.create ~seed:0xB1A5L in
  let bound = 3 * (1 lsl 60) in
  let third = bound / 3 in
  let n = 10_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let v = Prng.int t bound in
    Alcotest.(check bool) "in range" true (v >= 0 && v < bound);
    if v < third then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "low third drawn uniformly (%.3f)" frac)
    true
    (frac > 0.30 && frac < 0.37)

(* Splitting must not advance the parent, children must be pairwise
   distinct and decorrelated from each other and the parent's own walk.
   The per-shard / per-breaker / per-workload streams all ride on these
   properties. *)
let test_prng_split () =
  let parent = Prng.create ~seed:0xFEEDL in
  let expected = Prng.next_int64 (Prng.copy parent) in
  let c0 = Prng.split parent 0 in
  Alcotest.(check int64) "split does not advance the parent" expected
    (Prng.next_int64 (Prng.copy parent));
  Alcotest.(check int64) "split is deterministic"
    (Prng.next_int64 (Prng.split parent 0))
    (Prng.next_int64 c0);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Prng.split: negative index") (fun () ->
      ignore (Prng.split parent (-1)));
  (* Children are pairwise distinct across indices and across unrelated
     seeds. (Seeds that differ by an exact multiple of the golden gamma
     alias by construction — SplitMix lattice — which is why per-shard
     seeds are split from one root, never hand-picked per shard.) *)
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun seed ->
      for i = 0 to 511 do
        let s = Prng.split_seed ~seed i in
        Alcotest.(check bool)
          (Printf.sprintf "child (%Ld, %d) distinct" seed i)
          false (Hashtbl.mem seen s);
        Hashtbl.replace seen s ()
      done)
    [ 0L; 1L; 42L; -1L; 0xFEEDL; 0xDEADBEEFL ];
  (* Child streams must not coincide with the parent's own walk: the
     split finalizer avalanches differently from next_int64, so a child
     state never lands on a state the parent will step through. *)
  let p = Prng.create ~seed:0xFEEDL in
  for _ = 1 to 256 do
    Alcotest.(check bool) "child state off the parent's walk" false
      (Hashtbl.mem seen (Prng.next_int64 p))
  done

(* Uniformity: the first draw of consecutive child streams must be
   uniform even though the split indices are sequential — exactly how
   per-shard and per-tenant streams are derived. *)
let test_prng_split_uniformity () =
  let parent = Prng.create ~seed:0xC0FFEEL in
  let buckets = 64 in
  let n = 4096 in
  let hist = Array.make buckets 0 in
  let ones = ref 0 in
  for i = 0 to n - 1 do
    let child = Prng.split parent i in
    let v = Prng.int child buckets in
    hist.(v) <- hist.(v) + 1;
    (* monobit: set bits of the raw child seed *)
    let s = ref (Prng.split_seed ~seed:0xC0FFEEL i) in
    for _ = 1 to 64 do
      if Int64.logand !s 1L = 1L then incr ones;
      s := Int64.shift_right_logical !s 1
    done
  done;
  (* expected 64 per bucket, sigma ~ 8: a 5-sigma band *)
  Array.iteri
    (fun b c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d uniform (%d)" b c)
        true
        (c > 24 && c < 104))
    hist;
  (* expected 131072 set bits, sigma ~ 256 *)
  Alcotest.(check bool)
    (Printf.sprintf "child seeds unbiased (%d ones)" !ones)
    true
    (abs (!ones - 131072) < 1536)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Stats.median [ 5.0; 3.0; 1.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "percentile 0" 1.0 (Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "percentile 100" 3.0 (Stats.percentile [ 1.0; 2.0; 3.0 ] 100.0);
  Alcotest.(check (float 1e-9)) "percentile 50" 2.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 50.0);
  Alcotest.(check (float 1e-9)) "overhead" 25.0
    (Stats.percent_overhead ~baseline:4.0 ~measured:5.0);
  (* the paper's metric: native 1.0, wasm 1.186, segue 1.103 -> 44.6% *)
  let eliminated = Stats.overhead_eliminated ~baseline:1.0 ~unopt:1.186 ~opt:1.103 in
  Alcotest.(check bool) "overhead eliminated" true (Float.abs (eliminated -. 44.62) < 0.1);
  Alcotest.(check (float 1e-9)) "no overhead -> 0" 0.0
    (Stats.overhead_eliminated ~baseline:2.0 ~unopt:2.0 ~opt:1.5);
  Alcotest.check_raises "geomean rejects non-positive"
    (Invalid_argument "Stats.geomean: non-positive input") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* Known answer: the population stddev of this set is exactly 2; the
   Bessel-corrected sample stddev must be sqrt(32/7). A divisor-n
   regression would report 2.0 here. *)
let test_stddev () =
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-12)) "bessel-corrected known answer"
    (sqrt (32.0 /. 7.0))
    (Stats.stddev xs);
  Alcotest.(check (float 1e-12)) "two points" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "single observation well-defined" 0.0
    (Stats.stddev [ 42.0 ]);
  Alcotest.(check (float 1e-12)) "constant data" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ])

let test_units () =
  Alcotest.(check int) "gib" (1 lsl 30) Units.gib;
  Alcotest.(check int) "user address space" (1 lsl 47) Units.user_address_space_bytes;
  Alcotest.(check bool) "aligned" true (Units.is_aligned 8192 4096);
  Alcotest.(check bool) "unaligned" false (Units.is_aligned 8193 4096);
  Alcotest.(check int) "align_up" 8192 (Units.align_up 4097 4096);
  Alcotest.(check int) "align_up exact" 4096 (Units.align_up 4096 4096);
  Alcotest.(check int) "align_down" 4096 (Units.align_down 8191 4096);
  Alcotest.(check string) "pp exact" "8 GiB" (Units.to_string (8 * Units.gib));
  Alcotest.(check string) "pp fractional" "1.50 KiB" (Units.to_string 1536);
  Alcotest.(check string) "pp bytes" "17 B" (Units.to_string 17)

let prop_align_up =
  QCheck.Test.make ~name:"align_up yields the smallest aligned value >= x" ~count:500
    QCheck.(pair (int_bound 1_000_000) (int_range 1 65536))
    (fun (x, a) ->
      let r = Sfi_util.Units.align_up x a in
      r >= x && r mod a = 0 && r - x < a)

let test_table () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "contains header rule" true (String.contains rendered '+');
  Alcotest.(check bool) "row padded" true
    (List.length (String.split_on_char '\n' (String.trim rendered)) = 4);
  Alcotest.check_raises "too-wide row rejected"
    (Invalid_argument "Table.add_row: row wider than header") (fun () ->
      Table.add_row t [ "a"; "b"; "c" ]);
  Alcotest.(check string) "pct cell" "+3.5%" (Table.cell_pct 3.5);
  Alcotest.(check string) "neg pct cell" "-0.5%" (Table.cell_pct (-0.5))

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "push returns index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Vec.set v 42 7;
  Alcotest.(check int) "set" 7 (Vec.get v 42);
  Vec.append_array v [| 1; 2 |];
  Alcotest.(check int) "append" 102 (Vec.length v);
  Alcotest.(check int) "to_array keeps order" 0 (Vec.to_array v).(0);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 200))

(* Growth past 256 slots must not force a minor collection per vector. *)
let test_vec_growth_no_forced_minor_gc () =
  Harness.check_no_forced_minor_gcs "20 vectors of 1,000 boxed values" (fun () ->
      for _ = 1 to 20 do
        let v = Vec.create () in
        for i = 1 to 1_000 do
          ignore (Vec.push v (ref i))
        done;
        if !(Vec.get v 999) <> 1_000 then Alcotest.fail "vec lost a value"
      done)

(* An element replaced by [set] is unreachable from the vector, even
   where a grown vector's unused tail repeated it. *)
let test_vec_set_releases () =
  let v = Vec.create () and gone = Weak.create 2 in
  (let fill () =
     for i = 0 to 4 do
       let x = ref i in
       if i = 0 then Weak.set gone 0 (Some x);
       if i = 2 then Weak.set gone 1 (Some x);
       ignore (Vec.push v x)
     done
   in
   fill ());
  Vec.set v 0 (ref 10);
  Vec.set v 2 (ref 12);
  Gc.full_major ();
  Alcotest.(check bool) "replaced head released" false (Weak.check gone 0);
  Alcotest.(check bool) "replaced element released" false (Weak.check gone 1);
  Alcotest.(check (list int)) "contents" [ 10; 1; 12; 3; 4 ]
    (List.map ( ! ) (Array.to_list (Vec.to_array v)))

let tests =
  [
    Harness.case "prng determinism" test_prng_determinism;
    Harness.case "prng copy" test_prng_copy;
    Harness.case "prng ranges" test_prng_ranges;
    Harness.case "prng distributions" test_prng_distributions;
    Harness.case "prng uniformity at large bounds" test_prng_uniformity;
    Harness.case "prng split streams" test_prng_split;
    Harness.case "prng split uniformity" test_prng_split_uniformity;
    Harness.case "stats" test_stats;
    Harness.case "stddev is sample stddev" test_stddev;
    Harness.case "units" test_units;
    QCheck_alcotest.to_alcotest prop_align_up;
    Harness.case "table" test_table;
    Harness.case "vec" test_vec;
    Harness.case "vec growth: no forced minor collections" test_vec_growth_no_forced_minor_gc;
    Harness.case "vec set: replaced elements released" test_vec_set_releases;
  ]
