type divergence = {
  at_step : int;
  field : string;
  reference : string;
  candidate : string;
}

let status_string = function
  | Machine.Halted -> "halted"
  | Machine.Yielded -> "yielded"
  | Machine.Trapped k -> "trapped: " ^ Sfi_x86.Ast.trap_name k

(* First field on which the two snapshots disagree, if any. *)
let diff_snapshots (r : Machine.snapshot) (c : Machine.snapshot) =
  let open Machine in
  let i64 = Int64.to_string in
  let b = string_of_bool in
  let i = string_of_int in
  let rec find_reg idx =
    if idx >= Array.length r.s_regs then None
    else if r.s_regs.(idx) <> c.s_regs.(idx) then
      Some (Printf.sprintf "reg%d" idx, i64 r.s_regs.(idx), i64 c.s_regs.(idx))
    else find_reg (idx + 1)
  in
  let scalar =
    List.find_opt
      (fun (_, a, b) -> a <> b)
      [
        ("pc", i r.s_pc, i c.s_pc);
        ("zf", b r.s_zf, b c.s_zf);
        ("sf", b r.s_sf, b c.s_sf);
        ("cf", b r.s_cf, b c.s_cf);
        ("of", b r.s_of, b c.s_of);
        ("fs_base", i r.s_fs_base, i c.s_fs_base);
        ("gs_base", i r.s_gs_base, i c.s_gs_base);
        ("pkru", i r.s_pkru, i c.s_pkru);
        ("instructions", i r.s_instructions, i c.s_instructions);
        ("cycles", i r.s_cycles, i c.s_cycles);
        ("loads", i r.s_loads, i c.s_loads);
        ("stores", i r.s_stores, i c.s_stores);
        ("code_bytes", i r.s_code_bytes, i c.s_code_bytes);
        ("seg_base_writes", i r.s_seg_base_writes, i c.s_seg_base_writes);
        ("pkru_writes", i r.s_pkru_writes, i c.s_pkru_writes);
        ("dtlb_hits", i r.s_dtlb_hits, i c.s_dtlb_hits);
        ("dtlb_misses", i r.s_dtlb_misses, i c.s_dtlb_misses);
        ("dcache_misses", i r.s_dcache_misses, i c.s_dcache_misses);
        ("fetch_accum", i r.s_fetch_accum, i c.s_fetch_accum);
      ]
  in
  match scalar with Some _ as d -> d | None -> find_reg 0

let run_pair ?(stride = 1) ~make ~entry ?(fuel = 1 lsl 20) () =
  if stride <= 0 then invalid_arg "Lockstep.run_pair: stride must be > 0";
  let m_r = make () in
  let m_c = make () in
  Machine.set_engine m_r Machine.Reference;
  Machine.set_engine m_c Machine.Compiled;
  Machine.start m_r ~entry;
  Machine.start m_c ~entry;
  let rec advance step =
    if step >= fuel then Ok Machine.Yielded
    else begin
      let sr = Machine.run m_r ~fuel:stride in
      let sc = Machine.run m_c ~fuel:stride in
      if sr <> sc then
        Error
          {
            at_step = step;
            field = "status";
            reference = status_string sr;
            candidate = status_string sc;
          }
      else
        match diff_snapshots (Machine.snapshot m_r) (Machine.snapshot m_c) with
        | Some (field, reference, candidate) ->
            Error { at_step = step; field; reference; candidate }
        | None -> ( match sr with Machine.Yielded -> advance (step + stride) | s -> Ok s)
    end
  in
  advance 0

let pp_divergence fmt d =
  Format.fprintf fmt "step %d: %s differs (reference=%s, candidate=%s)" d.at_step d.field
    d.reference d.candidate
