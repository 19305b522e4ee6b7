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

(* The counts cover only a window of slots [lo, lo + length counts):
   whole octaves (slot 0, the zero bucket, on its own), grown on demand to
   the slots recorded so far. A fresh histogram owns no array, and one
   whose samples share an octave owns [sub + 1] words of counts. *)
type t = {
  sub : int;
  mutable lo : int;
  mutable counts : int array; (* [||] until the first sample *)
  mutable n : int;
  mutable sum : float;
  mutable exemplars : exemplar option array;
      (* [||] until the first exemplar, then over [counts]' window *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(sub = 16) () =
  if not (is_pow2 sub) then invalid_arg "Hist.create: sub must be a power of two";
  { sub; lo = 0; counts = [||]; n = 0; sum = 0.0; exemplars = [||] }

(* Slot 0 is zero/underflow, then [n_exp * sub] slots. *)
let slots t = 1 + (n_exp * t.sub)

(* The octave-aligned window [lo, hi) holding slot [i]. *)
let octave_lo t i = if i = 0 then 0 else 1 + ((i - 1) / t.sub * t.sub)
let octave_hi t i = if i = 0 then 1 else octave_lo t i + t.sub

(* Widen the window to cover slots [lo, hi), keeping what it holds. A
   histogram without counts has no exemplars either. *)
let cover t lo hi =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.lo <- lo;
    t.counts <- Array.make (hi - lo) 0
  end
  else if lo < t.lo || hi > t.lo + len then begin
    let lo = min lo t.lo and hi = max hi (t.lo + len) in
    let widen a empty =
      let b = Array.make (hi - lo) empty in
      Array.blit a 0 b (t.lo - lo) len;
      b
    in
    t.counts <- widen t.counts 0;
    if Array.length t.exemplars > 0 then t.exemplars <- widen t.exemplars None;
    t.lo <- lo
  end

let cover_slot t i =
  let j = i - t.lo in
  if j < 0 || j >= Array.length t.counts then cover t (octave_lo t i) (octave_hi t i)

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
    else if e > e_max then slots t - 1
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
  cover_slot t i;
  let j = i - t.lo in
  t.counts.(j) <- t.counts.(j) + 1;
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

(* Slot [i] must be inside the window. *)
let offer_exemplar t i ex =
  ensure_exemplars t;
  let j = i - t.lo in
  match t.exemplars.(j) with
  | None -> t.exemplars.(j) <- Some ex
  | Some cur -> if better_exemplar ex cur then t.exemplars.(j) <- Some ex

(* [offer_exemplar] for a fresh, unsealed exemplar, which cannot win on
   its ref: compared before it is built, so a loser allocates nothing. *)
let record_exemplar t v ~index:ev_index =
  let i = index t v in
  record_at t i v;
  ensure_exemplars t;
  let j = i - t.lo in
  match t.exemplars.(j) with
  | Some cur when not (v > cur.ex_value || (v = cur.ex_value && ev_index > cur.ex_index)) -> ()
  | _ -> t.exemplars.(j) <- Some { ex_value = v; ex_ref = 0L; ex_index = ev_index }

let seal_exemplars t fp =
  Array.iteri
    (fun i ex ->
      match ex with
      | Some e when e.ex_ref = 0L -> t.exemplars.(i) <- Some { e with ex_ref = fp }
      | _ -> ())
    t.exemplars

(* Value of the k-th order statistic (k in [0, n-1]) as its bucket's
   representative.  Single forward scan over the bucket array. *)
let slot_at_order t k =
  let acc = ref 0 in
  let res = ref (slots t - 1) in
  (try
     for j = 0 to Array.length t.counts - 1 do
       acc := !acc + t.counts.(j);
       if !acc > k then begin
         res := t.lo + j;
         raise Exit
       end
     done
   with Exit -> ());
  !res

let value_at_order t k = representative t (slot_at_order t k)

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
  if t.n = 0 || Array.length t.exemplars = 0 then None
  else
    let rank = if t.n = 1 then 0.0 else p /. 100.0 *. float_of_int (t.n - 1) in
    let k = clamp_order t (int_of_float (Float.ceil rank)) in
    let start = slot_at_order t k - t.lo in
    let res = ref None in
    (try
       for j = start to Array.length t.exemplars - 1 do
         match t.exemplars.(j) with
         | Some _ as ex -> res := ex; raise Exit
         | None -> ()
       done
     with Exit -> ());
    !res

let merge dst src =
  if dst.sub <> src.sub then invalid_arg "Hist.merge: sub-bucket counts differ";
  let len = Array.length src.counts in
  if len > 0 then begin
    cover dst src.lo (src.lo + len);
    let off = src.lo - dst.lo in
    for j = 0 to len - 1 do
      dst.counts.(off + j) <- dst.counts.(off + j) + src.counts.(j)
    done
  end;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum +. src.sum;
  if Array.length src.exemplars > 0 then
    Array.iteri
      (fun j ex -> match ex with Some e -> offer_exemplar dst (src.lo + j) e | None -> ())
      src.exemplars

let copy t =
  {
    t with
    counts = Array.copy t.counts;
    exemplars = (if Array.length t.exemplars = 0 then [||] else Array.copy t.exemplars);
  }
