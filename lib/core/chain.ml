module Units = Sfi_util.Units

type placement = { offset : int; size : int; color : int }

type t = {
  placements : placement list;
  total_bytes : int;
  padding_bytes : int;
  reach : int;
}

let plan ?(num_keys = Sfi_vmem.Mpk.max_usable_keys) ~reach ~sizes () =
  if num_keys < 1 || num_keys > Sfi_vmem.Mpk.max_usable_keys then
    Error "num_keys out of range"
  else if reach <= 0 then Error "reach must be positive"
  else if sizes = [] then Error "empty chain"
  else if
    List.exists (fun s -> s <= 0 || not (Units.is_aligned s Units.wasm_page_size)) sizes
  then Error "sizes must be positive multiples of the Wasm page size"
  else begin
    (* next_ok.(c) = first offset where color c+1 may be used again. *)
    let next_ok = Array.make num_keys 0 in
    let cursor = ref 0 in
    let padding = ref 0 in
    let place size =
      (* Prefer the free color that has waited longest (smallest
         next_ok): round-robin-ish fairness keeps all colors advancing. *)
      let best = ref (-1) in
      for c = 0 to num_keys - 1 do
        if next_ok.(c) <= !cursor && (!best < 0 || next_ok.(c) < next_ok.(!best)) then best := c
      done;
      let c =
        if !best >= 0 then !best
        else begin
          (* No free color: pad to the earliest eligibility point —
             the guard-before-reuse case the paper describes, which mixed
             sizes mostly avoid. *)
          let soonest = ref 0 in
          for c = 1 to num_keys - 1 do
            if next_ok.(c) < next_ok.(!soonest) then soonest := c
          done;
          padding := !padding + (next_ok.(!soonest) - !cursor);
          cursor := next_ok.(!soonest);
          !soonest
        end
      in
      let offset = !cursor in
      next_ok.(c) <- offset + reach;
      cursor := offset + size;
      { offset; size; color = c + 1 }
    in
    let placements = List.map place sizes in
    Ok
      {
        placements;
        (* A trailing guard protects every live reach window. *)
        total_bytes = !cursor + reach;
        padding_bytes = !padding;
        reach;
      }
  end

let utilization t =
  let payload = List.fold_left (fun acc p -> acc + p.size) 0 t.placements in
  float_of_int payload /. float_of_int t.total_bytes

let check t =
  let rec pairwise = function
    | [] -> Ok ()
    | p :: rest ->
        let bad_overlap =
          List.exists
            (fun q ->
              (not (p == q))
              && p.offset < q.offset + q.size
              && q.offset < p.offset + p.size)
            rest
        in
        if bad_overlap then Error (Printf.sprintf "slot at %d overlaps a later slot" p.offset)
        else begin
          let bad_color =
            List.exists
              (fun q -> q.color = p.color && abs (q.offset - p.offset) < t.reach)
              rest
          in
          if bad_color then
            Error
              (Printf.sprintf "same-colored slots closer than reach at offset %d" p.offset)
          else pairwise rest
        end
  in
  pairwise t.placements

let uniform_stripe_footprint ~num_keys ~reach ~sizes =
  (* Uniform striping fixes one stride for everybody: large enough that
     num_keys consecutive slots cover the reach. *)
  let stride = Units.align_up ((reach + num_keys - 1) / num_keys) Units.wasm_page_size in
  let stride = max stride (List.fold_left max 0 sizes) in
  (List.length sizes * stride) + reach
