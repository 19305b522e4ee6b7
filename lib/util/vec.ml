type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

(* [Array.make cap young_elt] over 256 words forces a minor GC; [Array.append] does not. *)
let grow t = t.data <- Array.append t.data t.data

let push t x =
  if t.len = Array.length t.data then
    if t.len = 0 then t.data <- [| x |] else grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

(* Unused slot [i + cap/2] may still repeat element [i] from [grow]; keep it in step. *)
let set t i x =
  check t i;
  t.data.(i) <- x;
  let dup = i + (Array.length t.data / 2) in
  if dup >= t.len && dup < Array.length t.data then t.data.(dup) <- x

let append_array t a = Array.iter (fun x -> ignore (push t x)) a
let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done
