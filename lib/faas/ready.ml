(* Slots are split by their due time against the clock of the last
   [advance]: a slot due at or before it has its bit set in [bits]; a slot
   due later (and finitely) sits in [heap], a binary min-heap on [due]
   indexed through [pos]. A slot due at infinity is in neither. *)

type t = {
  procs : int;
  due : Float.Array.t;
  bits : int array; (* 32 slots per word *)
  heap : int array;
  pos : int array; (* slot -> its index in [heap], -1 = not in it *)
  mutable size : int;
}

let create ~slots ~procs =
  if slots < 0 || procs < 1 then invalid_arg "Ready.create";
  {
    procs;
    due = Float.Array.make slots infinity;
    bits = Array.make ((slots + 31) lsr 5) 0;
    heap = Array.make slots 0;
    pos = Array.make slots (-1);
    size = 0;
  }

let slots t = Float.Array.length t.due
let due t i = Float.Array.get t.due i

let set_bit t i =
  let w = i lsr 5 in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (i land 31))

let clear_bit t i =
  let w = i lsr 5 in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl (i land 31))

(* --- the heap of slots not yet due --- *)

let[@inline] key t k = Float.Array.get t.due t.heap.(k)

let place t k i =
  t.heap.(k) <- i;
  t.pos.(i) <- k

let rec sift_up t k =
  if k > 0 then begin
    let p = (k - 1) / 2 in
    if key t k < key t p then begin
      let i = t.heap.(k) in
      place t k t.heap.(p);
      place t p i;
      sift_up t p
    end
  end

let rec sift_down t k =
  let l = (2 * k) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let m = if r < t.size && key t r < key t l then r else l in
    if key t m < key t k then begin
      let i = t.heap.(k) in
      place t k t.heap.(m);
      place t m i;
      sift_down t m
    end
  end

let heap_remove t i =
  let k = t.pos.(i) in
  if k >= 0 then begin
    let last = t.size - 1 in
    t.size <- last;
    t.pos.(i) <- -1;
    if k < last then begin
      let moved = t.heap.(last) in
      place t k moved;
      sift_up t k;
      sift_down t t.pos.(moved)
    end
  end

(* Insert [i], or restore the order around it after its key changed. *)
let heap_upsert t i =
  let k = t.pos.(i) in
  if k < 0 then begin
    place t t.size i;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)
  end
  else begin
    sift_up t k;
    sift_down t t.pos.(i)
  end

let set_due t i at ~now =
  Float.Array.set t.due i at;
  if at <= now then begin
    heap_remove t i;
    set_bit t i
  end
  else begin
    clear_bit t i;
    if at < infinity then heap_upsert t i else heap_remove t i
  end

let advance t ~now =
  while t.size > 0 && key t 0 <= now do
    let i = t.heap.(0) in
    heap_remove t i;
    set_bit t i
  done

let next_ready_time t = if t.size = 0 then infinity else key t 0

(* --- picking --- *)

(* Index of the lowest set bit of a non-zero 32-bit word. *)
let ctz w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then !n + 1 else !n

(* The first ready slot in [lo, hi) that [proc] accepts, or -1. *)
let rec first t ~proc lo hi =
  if lo >= hi then -1
  else begin
    let w = lo lsr 5 in
    let word = t.bits.(w) land (-1 lsl (lo land 31)) in
    if word = 0 then first t ~proc ((w + 1) lsl 5) hi
    else begin
      let i = (w lsl 5) + ctz word in
      if i >= hi then -1
      else if proc < 0 || i mod t.procs = proc then i
      else first t ~proc (i + 1) hi
    end
  end

let pick t ~cursor ~proc =
  let i = first t ~proc cursor (slots t) in
  if i >= 0 then i else first t ~proc 0 cursor
