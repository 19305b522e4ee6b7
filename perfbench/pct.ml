(* Order statistics and digests for the benchmark report. *)

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p]% of the samples at or below it. *)
let rank ~n p =
  (* the tolerance keeps e.g. 99.9% of 10000 at rank 9990, not 9991 *)
  max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))
let nearest_rank sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

(* Tail percentiles the report may print, highest first. *)
let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest candidate percentile with at least ten samples strictly
   above its rank, or [None] when even the median has fewer. *)
let reportable ~n = List.find_opt (fun p -> n - rank ~n p >= 10) candidates

(* [(percentile, value)] of the highest reportable tail percentile. *)
let tail samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  match reportable ~n:(Array.length sorted) with
  | None -> None
  | Some p -> Some (p, nearest_rank sorted p)

(* Python's statistics.quantiles(xs, n=4) ("exclusive" method): the
   quartile spread the acceptance rule uses, as a share of the median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q k =
    let j = k * (n + 1) / 4 and delta = k * (n + 1) mod 4 in
    let j, delta = if j < 1 then (1, 0) else if j > n - 1 then (n - 1, 4) else (j, delta) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  if n < 2 then (a.(0), a.(0)) else (q 1, q 3)

(* FNV-1a over 64-bit words: the fingerprint of a run's simulated
   statistics and of its generated inputs. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let fnv_int h v = fnv_int64 h (Int64.of_int v)
let fnv_float h v = fnv_int64 h (Int64.bits_of_float v)
let fnv_string h s = String.fold_left (fun h c -> fnv_int h (Char.code c)) (fnv_int h (String.length s)) s
