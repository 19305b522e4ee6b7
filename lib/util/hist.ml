(* Log-linear histogram: each power-of-two range [2^(e-1), 2^e) is cut
   into [sub] equal linear sub-buckets.  [sub] is a power of two, so
   every boundary is a dyadic rational and [Float.frexp] computes the
   bucket index exactly — there is no boundary jitter to reason about
   in the qcheck pin against [Stats.percentile]. *)

type exemplar = { ex_value : float; ex_ref : int64; ex_index : int }

(* Exponent range: frexp's [e] for 1.0 is 1; e_min = -20 tracks values
   down to ~5e-7 (anything smaller joins the zero bucket), e_max = 63
   covers the full simulated-nanosecond range.  Out-of-range highs
   clamp into the top bucket. *)
let e_min = -20
let e_max = 63
let n_exp = e_max - e_min + 1

type t = {
  sub : int;
  counts : int array; (* slot 0 = zero/underflow, then n_exp * sub slots *)
  mutable n : int;
  mutable sum : float;
  mutable exemplars : exemplar option array; (* [||] until first exemplar *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(sub = 16) () =
  if not (is_pow2 sub) then invalid_arg "Hist.create: sub must be a power of two";
  {
    sub;
    counts = Array.make (1 + (n_exp * sub)) 0;
    n = 0;
    sum = 0.0;
    exemplars = [||];
  }

let sub_buckets t = t.sub
let count t = t.n
let total t = t.sum

(* The bucket of [v], read off its IEEE fields. [Float.frexp v] is
   [(m, e)] with [m] in [0.5, 1); for a normal [v], [e] is the biased
   exponent less 1022 and [m - 0.5] is the 52-bit mantissa field over
   2^53, so the linear sub-bucket [(m - 0.5) * 2 * sub] is the field over
   [2^52 / sub] — the same integer, without frexp's allocation.
   Subnormals fall below [e_min]; infinity joins the top bucket. *)
let index t v =
  if not (v > 0.0) then 0
  else
    let bits = Int64.bits_of_float v in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) in
    let e = biased - 1022 in
    if biased = 0 || e < e_min then 0
    else if e > e_max then Array.length t.counts - 1
    else
      let s = (Int64.to_int bits land ((1 lsl 52) - 1)) / ((1 lsl 52) / t.sub) in
      1 + (((e - e_min) * t.sub) + s)

(* Midpoint representative of a bucket: for slot 0 that is 0.0, else the
   centre of the linear sub-range [0.5 + s/(2*sub), 0.5 + (s+1)/(2*sub))
   scaled by 2^e. *)
let representative t i =
  if i = 0 then 0.0
  else
    let b = i - 1 in
    let e = e_min + (b / t.sub) in
    let s = b mod t.sub in
    Float.ldexp (0.5 +. ((float_of_int s +. 0.5) /. (2.0 *. float_of_int t.sub))) e

let width_of_slot t i =
  if i = 0 then Float.ldexp 1.0 (e_min - 1)
  else
    let e = e_min + ((i - 1) / t.sub) in
    Float.ldexp (1.0 /. (2.0 *. float_of_int t.sub)) e

let bucket_width_at t v = width_of_slot t (index t v)

let record_at t i v =
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v

let record t v = record_at t (index t v) v

(* Total order on exemplars so merge is commutative and associative:
   larger value wins, then larger event index, then larger ref. *)
let better_exemplar a b =
  if a.ex_value <> b.ex_value then a.ex_value > b.ex_value
  else if a.ex_index <> b.ex_index then a.ex_index > b.ex_index
  else Int64.unsigned_compare a.ex_ref b.ex_ref > 0

let ensure_exemplars t =
  if Array.length t.exemplars = 0 then t.exemplars <- Array.make (Array.length t.counts) None

let offer_exemplar t i ex =
  ensure_exemplars t;
  match t.exemplars.(i) with
  | None -> t.exemplars.(i) <- Some ex
  | Some cur -> if better_exemplar ex cur then t.exemplars.(i) <- Some ex

(* [offer_exemplar] for a fresh, unsealed exemplar, which cannot win on
   its ref: compared before it is built, so a loser allocates nothing. *)
let record_exemplar t v ~index:ev_index =
  let i = index t v in
  record_at t i v;
  ensure_exemplars t;
  match t.exemplars.(i) with
  | Some cur when not (v > cur.ex_value || (v = cur.ex_value && ev_index > cur.ex_index)) -> ()
  | _ -> t.exemplars.(i) <- Some { ex_value = v; ex_ref = 0L; ex_index = ev_index }

let seal_exemplars t fp =
  Array.iteri
    (fun i ex ->
      match ex with
      | Some e when e.ex_ref = 0L -> t.exemplars.(i) <- Some { e with ex_ref = fp }
      | _ -> ())
    t.exemplars

(* Value of the k-th order statistic (k in [0, n-1]) as its bucket's
   representative.  Single forward scan over the bucket array. *)
let value_at_order t k =
  let acc = ref 0 in
  let res = ref 0.0 in
  (try
     for i = 0 to Array.length t.counts - 1 do
       acc := !acc + t.counts.(i);
       if !acc > k then begin
         res := representative t i;
         raise Exit
       end
     done
   with Exit -> ());
  !res

let slot_at_order t k =
  let acc = ref 0 in
  let res = ref (Array.length t.counts - 1) in
  (try
     for i = 0 to Array.length t.counts - 1 do
       acc := !acc + t.counts.(i);
       if !acc > k then begin
         res := i;
         raise Exit
       end
     done
   with Exit -> ());
  !res

let clamp_order t k = if k < 0 then 0 else if k > t.n - 1 then t.n - 1 else k

let percentile t p =
  if t.n = 0 then invalid_arg "Hist.percentile: empty histogram";
  if t.n = 1 then value_at_order t 0
  else
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo = clamp_order t (int_of_float (Float.floor rank)) in
    let hi = clamp_order t (int_of_float (Float.ceil rank)) in
    let vlo = value_at_order t lo in
    if lo = hi then vlo
    else
      let vhi = value_at_order t hi in
      let frac = rank -. Float.floor rank in
      vlo +. (frac *. (vhi -. vlo))

let exemplar_at t p =
  if t.n = 0 then None
  else
    let rank = if t.n = 1 then 0.0 else p /. 100.0 *. float_of_int (t.n - 1) in
    let k = clamp_order t (int_of_float (Float.ceil rank)) in
    let start = slot_at_order t k in
    if Array.length t.exemplars = 0 then None
    else
      let res = ref None in
      (try
         for i = start to Array.length t.exemplars - 1 do
           match t.exemplars.(i) with
           | Some _ as ex -> res := ex; raise Exit
           | None -> ()
         done
       with Exit -> ());
      !res

let merge dst src =
  if dst.sub <> src.sub then invalid_arg "Hist.merge: sub-bucket counts differ";
  for i = 0 to Array.length dst.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  if Array.length src.exemplars > 0 then
    Array.iteri
      (fun i ex -> match ex with Some e -> offer_exemplar dst i e | None -> ())
      src.exemplars

let copy t =
  {
    sub = t.sub;
    counts = Array.copy t.counts;
    n = t.n;
    sum = t.sum;
    exemplars = (if Array.length t.exemplars = 0 then [||] else Array.copy t.exemplars);
  }
