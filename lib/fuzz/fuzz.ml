module W = Sfi_wasm.Ast
module B = Sfi_wasm.Builder
module Interp = Sfi_wasm.Interp
module X = Sfi_x86.Ast
module Prng = Sfi_util.Prng
module Units = Sfi_util.Units
module Strategy = Sfi_core.Strategy
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool
module Machine = Sfi_machine.Machine
module Runtime = Sfi_runtime.Runtime
module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Mpk = Sfi_vmem.Mpk
module Lfi = Sfi_lfi.Lfi

type program = {
  p_seed : int64;
  p_module : W.module_;
  p_args : W.value list;
  p_tame : bool;
}

(* --- generator ---------------------------------------------------------- *)

(* Programs are built around one exported [run : i32 i64 -> i32] plus a few
   leaf helpers reachable by [call] and [call_indirect]. Only [run] makes
   calls and [run] itself is never in the table, so call depth is bounded
   and the interpreter's fuel limit and the machine's stack limit can never
   disagree about a runaway recursion. Loops count up a dedicated counter
   local that generated statements cannot touch, so every program
   terminates. *)

type env = {
  rng : Prng.t;
  b : B.t;
  i32s : int array;  (* i32-typed locals visible to generated code *)
  i64s : int array;
  g32s : int array;  (* global indices by type *)
  g64s : int array;
  counters : int list;  (* free loop-counter locals *)
  callees : (B.fn * W.functype) array;  (* empty inside helpers *)
  table_sigs : W.functype array;  (* signature of each table slot *)
  tame : bool;
  mutable budget : int;
}

let pick_arr rng a = a.(Prng.int rng (Array.length a))
let pick_list rng l = List.nth l (Prng.int rng (List.length l))

(* Constants cluster around the interesting places: zero, small, the
   64 KiB memory boundary, and full-width patterns. *)
let const32 rng =
  match Prng.int rng 6 with
  | 0 -> Prng.int rng 16
  | 1 -> Prng.int rng 256
  | 2 -> W.page_size - (1 lsl Prng.int rng 5)
  | 3 -> 0xFFF0 + Prng.int rng 0x40
  | 4 -> Prng.int rng W.page_size
  | _ -> ( match Prng.int rng 3 with 0 -> -1 | 1 -> 0x7FFFFFFF | _ -> 0x80000000)

let const64 rng =
  match Prng.int rng 4 with
  | 0 -> Int64.of_int (Prng.int rng 256)
  | 1 -> Int64.of_int (const32 rng)
  | 2 -> 0xDEAD_BEEF_CAFE_F00DL
  | _ -> Prng.next_int64 rng

let sig_pool =
  [
    { W.params = [ W.I32 ]; results = [ W.I32 ] };
    { W.params = [ W.I32; W.I32 ]; results = [ W.I32 ] };
    { W.params = [ W.I64 ]; results = [ W.I64 ] };
    { W.params = [ W.I32 ]; results = [] };
  ]

let rec gen_i32 env depth =
  env.budget <- env.budget - 1;
  let leaf () =
    match Prng.int env.rng 4 with
    | 0 -> [ B.i32 (const32 env.rng) ]
    | 1 -> [ B.get (pick_arr env.rng env.i32s) ]
    | 2 when Array.length env.g32s > 0 -> [ B.gget (pick_arr env.rng env.g32s) ]
    | _ -> [ B.i32 (Prng.int env.rng 64) ]
  in
  if depth <= 0 || env.budget <= 0 then leaf ()
  else
    match Prng.int env.rng 14 with
    | 0 | 1 -> leaf ()
    | 2 | 3 ->
        let op =
          pick_list env.rng
            [ B.add; B.sub; B.mul; B.band; B.bor; B.bxor; B.shl; B.shr_u; B.shr_s; B.rotl ]
        in
        gen_i32 env (depth - 1) @ gen_i32 env (depth - 1) @ [ op ]
    | 4 ->
        (* division family: divide-by-zero and INT_MIN/-1 trap coverage,
           but usually with a forced-nonzero divisor so most programs get
           past their first division *)
        let op = pick_list env.rng [ B.div_s; B.div_u; B.rem_s; B.rem_u ] in
        let divisor =
          if Prng.int env.rng 4 = 0 then gen_i32 env (depth - 1)
          else gen_i32 env (depth - 1) @ [ B.i32 (1 + Prng.int env.rng 7); B.bor ]
        in
        gen_i32 env (depth - 1) @ divisor @ [ op ]
    | 5 ->
        let op =
          pick_list env.rng [ B.eq; B.ne; B.lt_s; B.lt_u; B.gt_s; B.gt_u; B.le_u; B.ge_s ]
        in
        gen_i32 env (depth - 1) @ gen_i32 env (depth - 1) @ [ op ]
    | 6 -> gen_i32 env (depth - 1) @ [ B.eqz ]
    | 7 -> gen_i64 env (depth - 1) @ [ B.wrap ]
    | 8 ->
        let load =
          pick_list env.rng [ B.load32; B.load8_u; B.load8_s; B.load16_u ]
        in
        gen_addr env @ [ load ~offset:(gen_offset env) () ]
    | 9 -> if Prng.bool env.rng then [ B.memory_size ] else gen_i32 env (depth - 1)
    | 10 ->
        let op = pick_list env.rng [ W.Clz W.I32; W.Ctz W.I32; W.Popcnt W.I32 ] in
        gen_i32 env (depth - 1) @ [ op ]
    | 11 ->
        gen_i32 env (depth - 1) @ gen_i32 env (depth - 1) @ gen_i32 env (depth - 1)
        @ [ B.select ]
    | 12 -> (
        let cands =
          Array.of_list
            (List.filter
               (fun (_, ft) -> ft.W.results = [ W.I32 ])
               (Array.to_list env.callees))
        in
        match Array.length cands with
        | 0 -> leaf ()
        | _ ->
            let fn, ft = pick_arr env.rng cands in
            List.concat_map (fun ty -> gen_ty env (depth - 1) ty) ft.W.params @ [ B.call fn ])
    | _ -> gen_call_indirect env depth [ W.I32 ] leaf

and gen_i64 env depth =
  env.budget <- env.budget - 1;
  let leaf () =
    match Prng.int env.rng 4 with
    | 0 -> [ B.i64' (const64 env.rng) ]
    | 1 when Array.length env.i64s > 0 -> [ B.get (pick_arr env.rng env.i64s) ]
    | 2 when Array.length env.g64s > 0 -> [ B.gget (pick_arr env.rng env.g64s) ]
    | _ -> [ B.i64 (Prng.int env.rng 4096) ]
  in
  if depth <= 0 || env.budget <= 0 then leaf ()
  else
    match Prng.int env.rng 10 with
    | 0 | 1 -> leaf ()
    | 2 | 3 ->
        let op =
          pick_list env.rng
            [ B.add64; B.sub64; B.mul64; B.band64; B.bor64; B.bxor64; B.shl64; B.shr_u64; B.shr_s64 ]
        in
        gen_i64 env (depth - 1) @ gen_i64 env (depth - 1) @ [ op ]
    | 4 | 5 ->
        gen_i32 env (depth - 1)
        @ [ (if Prng.bool env.rng then B.extend_u else B.extend_s) ]
    | 6 -> gen_addr env @ [ B.load64 ~offset:(gen_offset env) () ]
    | 7 ->
        let op = pick_list env.rng [ W.Clz W.I64; W.Ctz W.I64; W.Popcnt W.I64 ] in
        gen_i64 env (depth - 1) @ [ op ]
    | _ -> (
        let cands =
          Array.of_list
            (List.filter
               (fun (_, ft) -> ft.W.results = [ W.I64 ])
               (Array.to_list env.callees))
        in
        match Array.length cands with
        | 0 -> leaf ()
        | _ ->
            let fn, ft = pick_arr env.rng cands in
            List.concat_map (fun ty -> gen_ty env (depth - 1) ty) ft.W.params @ [ B.call fn ])

and gen_ty env depth = function W.I32 -> gen_i32 env depth | W.I64 -> gen_i64 env depth

(* Address classes: masked always-in-bounds (the only class in tame mode),
   boundary-hugging constants on both sides of the 64 KiB line, and rare
   wild pointers deep in the guard region. *)
and gen_addr env =
  if env.tame then gen_i32 env 1 @ [ B.i32 0xFF8; B.band ]
  else
    match Prng.int env.rng 12 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> gen_i32 env 1 @ [ B.i32 0xFF8; B.band ]
    | 7 | 8 -> [ B.i32 (W.page_size - (1 lsl Prng.int env.rng 5)) ]
    | 9 -> [ B.i32 (0xFFC0 + Prng.int env.rng 0x80) ]
    | 10 -> [ B.i32 (0xFFF8 land const32 env.rng) ]
    | _ -> [ B.i32 (pick_list env.rng [ 0x1_0000; 0x2_0000; 0x7FF0_0000 ]) ]

and gen_offset env =
  if env.tame then pick_list env.rng [ 0; 0; 1; 2; 4; 8 ]
  else pick_list env.rng [ 0; 0; 0; 1; 2; 4; 8; 16; 0xFF0; 0xFFF0 ]

and gen_call_indirect env depth results fallback =
  let n = Array.length env.table_sigs in
  if n = 0 then fallback ()
  else if env.tame then begin
    (* exact signature of an in-bounds slot: never traps, safe for the
       native LFI arm which has no type-check or table-bounds semantics to
       compare against *)
    let cands = ref [] in
    Array.iteri (fun i ft -> if ft.W.results = results then cands := (i, ft) :: !cands) env.table_sigs;
    match !cands with
    | [] -> fallback ()
    | l ->
        let idx, ft = pick_list env.rng l in
        List.concat_map (fun ty -> gen_ty env (depth - 1) ty) ft.W.params
        @ [ B.i32 idx; B.call_indirect env.b ~params:ft.W.params ~results ]
  end
  else begin
    (* free-for-all: out-of-bounds indices and signature mismatches are
       trap paths the oracle compares *)
    let ft = pick_list env.rng (List.filter (fun s -> s.W.results = results) sig_pool) in
    let idx = Prng.int env.rng (n + 2) in
    List.concat_map (fun ty -> gen_ty env (depth - 1) ty) ft.W.params
    @ [ B.i32 idx; B.call_indirect env.b ~params:ft.W.params ~results ]
  end

let rec gen_stmt env depth =
  env.budget <- env.budget - 1;
  if env.budget <= 0 then [ B.nop ]
  else
    let n_choices = if depth > 0 then 16 else 9 in
    match Prng.int env.rng n_choices with
    | 0 | 1 -> gen_i32 env 2 @ [ B.set (pick_arr env.rng env.i32s) ]
    | 2 when Array.length env.i64s > 0 ->
        gen_i64 env 2 @ [ B.set (pick_arr env.rng env.i64s) ]
    | 2 -> gen_i32 env 1 @ [ B.set (pick_arr env.rng env.i32s) ]
    | 3 ->
        if Array.length env.g32s > 0 && (Array.length env.g64s = 0 || Prng.bool env.rng)
        then gen_i32 env 2 @ [ B.gset (pick_arr env.rng env.g32s) ]
        else if Array.length env.g64s > 0 then
          gen_i64 env 2 @ [ B.gset (pick_arr env.rng env.g64s) ]
        else [ B.nop ]
    | 4 | 5 -> (
        let offset = gen_offset env in
        match Prng.int env.rng 4 with
        | 0 -> gen_addr env @ gen_i32 env 1 @ [ B.store32 ~offset () ]
        | 1 -> gen_addr env @ gen_i32 env 1 @ [ B.store8 ~offset () ]
        | 2 -> gen_addr env @ gen_i32 env 1 @ [ B.store16 ~offset () ]
        | _ -> gen_addr env @ gen_i64 env 1 @ [ B.store64 ~offset () ])
    | 6 ->
        let len = pick_list env.rng [ 0; 1; 17; 255; 4096 ] in
        if Prng.bool env.rng then
          gen_addr env @ gen_i32 env 1 @ [ B.i32 len; B.memory_fill ]
        else gen_addr env @ gen_addr env @ [ B.i32 len; B.memory_copy ]
    | 7 ->
        let delta = pick_list env.rng [ 0; 1; 1; 2; 100 ] in
        [ B.i32 delta; B.memory_grow; B.set (pick_arr env.rng env.i32s) ]
    | 8 ->
        (* rare unreachable behind a data-dependent condition *)
        gen_i32 env 1 @ [ B.if_ [ B.unreachable ] [] ]
    | 9 ->
        gen_i32 env 1
        @ [
            B.if_ (gen_block env (depth - 1))
              (if Prng.bool env.rng then gen_block env (depth - 1) else []);
          ]
    | 10 | 11 -> (
        match env.counters with
        | [] -> gen_i32 env 1 @ [ B.set (pick_arr env.rng env.i32s) ]
        | c :: rest ->
            let env' = { env with counters = rest } in
            let stop = 2 + Prng.int env.rng 12 in
            if Prng.bool env.rng then
              B.for_loop ~i:c ~start:[ B.i32 (Prng.int env.rng 3) ] ~stop:[ B.i32 stop ]
                (gen_block env' (depth - 1))
            else
              [ B.i32 0; B.set c ]
              @ B.while_loop
                  [ B.get c; B.i32 stop; B.lt_u ]
                  (gen_block env' (depth - 1) @ [ B.get c; B.i32 1; B.add; B.set c ]))
    | 12 -> gen_br_table env
    | 13 ->
        [
          B.block
            (gen_block env (depth - 1) @ gen_i32 env 1 @ [ B.br_if 0 ]
            @ gen_block env (depth - 1));
        ]
    | 14 -> (
        let cands =
          Array.of_list
            (List.filter (fun (_, ft) -> ft.W.results = []) (Array.to_list env.callees))
        in
        match Array.length cands with
        | 0 -> gen_i32 env 2 @ [ B.drop ]
        | _ ->
            let fn, ft = pick_arr env.rng cands in
            List.concat_map (fun ty -> gen_ty env 1 ty) ft.W.params @ [ B.call fn ])
    | _ -> gen_call_indirect env 1 [] (fun () -> gen_i32 env 2 @ [ B.drop ])

and gen_block env depth =
  List.concat (List.init (1 + Prng.int env.rng 2) (fun _ -> gen_stmt env depth))

(* The nested-void-block br_table shape (the only one the codegen
   supports): the innermost block holds the selector and the br_table, each
   wrapping block appends one case, the outermost holds the default. *)
and gen_br_table env =
  let ncases = 2 + Prng.int env.rng 3 in
  let sel = gen_i32 env 1 in
  let inner = B.block (sel @ [ W.Br_table (List.init ncases (fun i -> i), ncases) ]) in
  let rec wrap j acc =
    if j >= ncases then acc
    else wrap (j + 1) (B.block ((acc :: gen_block env 0) @ [ B.br (ncases - j) ]))
  in
  [ B.block (wrap 0 inner :: gen_block env 0) ]

let generate seed =
  let rng = Prng.create ~seed in
  let tame = Prng.int rng 100 < 40 in
  let b = B.create ~memory_pages:1 ~max_memory_pages:2 () in
  let g32s = ref [] and g64s = ref [] in
  for _ = 1 to 2 + Prng.int rng 3 do
    if Prng.bool rng then
      g32s := B.global b W.I32 (W.V_i32 (Int32.of_int (Prng.int rng 1024))) :: !g32s
    else g64s := B.global b W.I64 (W.V_i64 (Int64.of_int (Prng.int rng 1024))) :: !g64s
  done;
  let g32s = Array.of_list (List.rev !g32s) and g64s = Array.of_list (List.rev !g64s) in
  let nhelpers = 1 + Prng.int rng 3 in
  let helpers =
    Array.init nhelpers (fun i ->
        let ft = pick_list rng sig_pool in
        let fn =
          B.declare b (Printf.sprintf "h%d" i) ~params:ft.W.params ~results:ft.W.results ()
        in
        (fn, ft))
  in
  let run = B.declare b "run" ~params:[ W.I32; W.I64 ] ~results:[ W.I32 ] () in
  let table_fns = Array.init (1 + Prng.int rng 3) (fun _ -> helpers.(Prng.int rng nhelpers)) in
  B.elem b (Array.to_list (Array.map fst table_fns));
  let table_sigs = Array.map snd table_fns in
  if Prng.bool rng then begin
    let len = 16 + Prng.int rng 241 in
    B.data b ~offset:(Prng.int rng 4096) (String.init len (fun _ -> Char.chr (Prng.int rng 256)))
  end;
  Array.iter
    (fun (fn, ft) ->
      let nparams = List.length ft.W.params in
      let p32 = List.concat (List.mapi (fun i ty -> if ty = W.I32 then [ i ] else []) ft.W.params) in
      let p64 = List.concat (List.mapi (fun i ty -> if ty = W.I64 then [ i ] else []) ft.W.params) in
      let env =
        {
          rng;
          b;
          i32s = Array.of_list (p32 @ [ nparams ]);
          i64s = Array.of_list p64;
          g32s;
          g64s;
          counters = [ nparams + 1 ];
          callees = [||];
          table_sigs = [||];
          tame;
          budget = 20 + Prng.int rng 30;
        }
      in
      let stmts = gen_block env 1 in
      let final =
        match ft.W.results with
        | [ W.I32 ] -> gen_i32 env 2
        | [ W.I64 ] -> gen_i64 env 2
        | _ -> []
      in
      B.define b fn ~locals:[ W.I32; W.I32 ] (stmts @ final))
    helpers;
  let env =
    {
      rng;
      b;
      i32s = [| 0; 2; 3; 4; 5 |];
      i64s = [| 1; 6; 7 |];
      g32s;
      g64s;
      counters = [ 8; 9 ];
      callees = helpers;
      table_sigs;
      tame;
      budget = 60 + Prng.int rng 60;
    }
  in
  let stmts = List.concat (List.init (3 + Prng.int rng 5) (fun _ -> gen_stmt env 2)) in
  let final = gen_i32 env 3 in
  B.define b run
    ~locals:[ W.I32; W.I32; W.I32; W.I32; W.I64; W.I64; W.I32; W.I32 ]
    (stmts @ final);
  let m = B.build b in
  let args = [ W.V_i32 (Int32.of_int (const32 rng)); W.V_i64 (const64 rng) ] in
  { p_seed = seed; p_module = m; p_args = args; p_tame = tame }

(* --- printers ----------------------------------------------------------- *)

let rec pp_body ppf indent body =
  let pad = String.make indent ' ' in
  List.iter
    (fun i ->
      match i with
      | W.Block (_, b) ->
          Format.fprintf ppf "%sblock@." pad;
          pp_body ppf (indent + 2) b;
          Format.fprintf ppf "%send@." pad
      | W.Loop (_, b) ->
          Format.fprintf ppf "%sloop@." pad;
          pp_body ppf (indent + 2) b;
          Format.fprintf ppf "%send@." pad
      | W.If (_, t, e) ->
          Format.fprintf ppf "%sif@." pad;
          pp_body ppf (indent + 2) t;
          if e <> [] then begin
            Format.fprintf ppf "%selse@." pad;
            pp_body ppf (indent + 2) e
          end;
          Format.fprintf ppf "%send@." pad
      | i -> Format.fprintf ppf "%s%a@." pad W.pp_instr i)
    body

let pp_module ppf (m : W.module_) =
  (match m.W.memory with
  | Some mem ->
      Format.fprintf ppf "memory %d page(s)%s@." mem.W.min_pages
        (match mem.W.max_pages with
        | Some mx -> Printf.sprintf " (max %d)" mx
        | None -> "")
  | None -> ());
  Array.iteri
    (fun i (g : W.global) ->
      Format.fprintf ppf "global %d: %s = %a@." i (W.valty_name g.W.gtype) W.pp_value g.W.ginit)
    m.W.globals;
  if Array.length m.W.table > 0 then
    Format.fprintf ppf "table: [%s]@."
      (String.concat " " (Array.to_list (Array.map string_of_int m.W.table)));
  List.iter
    (fun (d : W.data_segment) ->
      Format.fprintf ppf "data: %d bytes at %d@." (String.length d.W.dbytes) d.W.doffset)
    m.W.data;
  Array.iteri
    (fun i (f : W.func) ->
      Format.fprintf ppf "func %d (%s) %a locals=[%s]@."
        (i + Array.length m.W.imports)
        f.W.fname W.pp_functype m.W.types.(f.W.ftype)
        (String.concat " " (List.map W.valty_name f.W.locals));
      pp_body ppf 2 f.W.body)
    m.W.funcs

(* --- the differential oracle -------------------------------------------- *)

let value_bits = function
  | W.V_i32 v -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
  | W.V_i64 v -> v

let mask_global ty bits =
  match ty with W.I32 -> Int64.logand bits 0xFFFFFFFFL | W.I64 -> bits

let mask_result m bits =
  match (W.type_of_func m (W.func_index_of_export m "run")).W.results with
  | [ W.I32 ] -> Int64.logand bits 0xFFFFFFFFL
  | [] -> 0L
  | _ -> bits

(* Everything one semantics leaves behind. Memory, pages and globals are
   only compared when both sides returned normally: a trap legitimately
   leaves partial effects and Wasm does not pin them down. *)
type exec = {
  x_outcome : (int64, string) result;
  x_memory : string;
  x_pages : int;
  x_globals : int64 array;
}

let run_interp m args =
  let inst = Interp.instantiate m in
  let outcome =
    match Interp.invoke inst "run" args with
    | Ok [] -> Ok 0L
    | Ok (v :: _) -> Ok (value_bits v)
    | Error t -> Error (Interp.trap_name t)
    | exception Interp.Out_of_fuel -> Error "out of fuel"
  in
  {
    x_outcome = outcome;
    x_memory =
      (match outcome with
      | Ok _ -> Interp.read_memory inst ~addr:0 ~len:(Interp.memory_size_bytes inst)
      | Error _ -> "");
    x_pages = Interp.memory_size_bytes inst / W.page_size;
    x_globals =
      Array.mapi
        (fun i (g : W.global) -> mask_global g.W.gtype (value_bits (Interp.global_value inst i)))
        m.W.globals;
  }

(* Per-engine machine state the two engines must agree on bit-for-bit. *)
type mach_extra = { c_counters : Machine.counters; c_dtlb : int; c_dcache : int }

let copy_counters (c : Machine.counters) = { c with Machine.instructions = c.Machine.instructions }

let run_compiled ~sanitizer ~strategy ~kind ~traced m args =
  let cfg = Codegen.default_config ~strategy () in
  let compiled = Codegen.compile cfg m in
  let eng = Runtime.create_engine ~engine:kind compiled in
  if sanitizer then Runtime.arm_sanitizer eng;
  if traced then Runtime.set_trace eng (Sfi_trace.Trace.create_ring ~capacity:256 ());
  let inst = Runtime.instantiate eng in
  let outcome =
    match Runtime.invoke inst "run" (List.map value_bits args) with
    | Ok raw -> Ok (mask_result m raw)
    | Error k -> Error (X.trap_name k)
  in
  let pages = Runtime.memory_pages inst in
  let mach = Runtime.machine eng in
  ( {
      x_outcome = outcome;
      x_memory =
        (match outcome with
        | Ok _ -> Runtime.read_memory inst ~addr:0 ~len:(pages * W.page_size)
        | Error _ -> "");
      x_pages = pages;
      x_globals =
        Array.mapi
          (fun i (g : W.global) -> mask_global g.W.gtype (Runtime.read_global inst i))
          m.W.globals;
    },
    {
      c_counters = copy_counters (Machine.counters mach);
      c_dtlb = Machine.dtlb_misses mach;
      c_dcache = Machine.dcache_misses mach;
    } )

(* Churn arm: exercise the instance lifecycle between runs of the same
   program. The first instance runs (dirtying heap, vmctx and host-stack
   pages), a neighbour is instantiated, the first is killed and its slot
   re-instantiated — so the second run executes on a recycled slot. If
   recycle misses a dirty page (or drops a clean one), the recycled run
   diverges from the interpreter. Default codegen config and engine. *)
let run_churned ~sanitizer m args =
  let compiled = Codegen.compile (Codegen.default_config ()) m in
  let eng = Runtime.create_engine compiled in
  if sanitizer then Runtime.arm_sanitizer eng;
  let args64 = List.map value_bits args in
  let i0 = Runtime.instantiate eng in
  (match Runtime.invoke i0 "run" args64 with Ok _ | Error _ -> ());
  let i1 = Runtime.instantiate eng in
  Runtime.kill i0;
  let i2 = Runtime.instantiate eng in
  if Runtime.instance_id i2 <> Runtime.instance_id i0 then
    failwith "churn: kill did not recycle the slot";
  Runtime.release i1;
  let outcome =
    match Runtime.invoke i2 "run" args64 with
    | Ok raw -> Ok (mask_result m raw)
    | Error k -> Error (X.trap_name k)
  in
  let pages = Runtime.memory_pages i2 in
  {
    x_outcome = outcome;
    x_memory =
      (match outcome with
      | Ok _ -> Runtime.read_memory i2 ~addr:0 ~len:(pages * W.page_size)
      | Error _ -> "");
    x_pages = pages;
    x_globals =
      Array.mapi
        (fun i (g : W.global) -> mask_global g.W.gtype (Runtime.read_global i2 i))
        m.W.globals;
  }

let traps_agree interp_name mach_name =
  String.equal interp_name mach_name
  || (String.equal interp_name "undefined table element"
     && String.equal mach_name (X.trap_name X.Trap_out_of_bounds))

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i >= n then n else if a.[i] <> b.[i] then i else go (i + 1) in
  go 0

let globals_diff a b =
  let rec go i =
    if i >= Array.length a then None
    else if not (Int64.equal a.(i) b.(i)) then Some (i, a.(i), b.(i))
    else go (i + 1)
  in
  go 0

let compare_to_interp interp mach =
  match (interp.x_outcome, mach.x_outcome) with
  | Ok a, Ok b when not (Int64.equal a b) ->
      Some (Printf.sprintf "result: interpreter %Ld, compiled %Ld" a b)
  | Ok _, Ok _ -> (
      if interp.x_pages <> mach.x_pages then
        Some
          (Printf.sprintf "memory size: interpreter %d pages, compiled %d" interp.x_pages
             mach.x_pages)
      else if not (String.equal interp.x_memory mach.x_memory) then
        Some
          (Printf.sprintf "final memory differs (first diff at byte %d)"
             (first_diff interp.x_memory mach.x_memory))
      else
        match globals_diff interp.x_globals mach.x_globals with
        | Some (i, a, b) ->
            Some (Printf.sprintf "global %d: interpreter %Ld, compiled %Ld" i a b)
        | None -> None)
  | Error t, Error k when traps_agree t k -> None
  | Error t, Error k -> Some (Printf.sprintf "trap: interpreter %S, compiled %S" t k)
  | Ok a, Error k -> Some (Printf.sprintf "interpreter returned %Ld but compiled trapped: %s" a k)
  | Error t, Ok b -> Some (Printf.sprintf "interpreter trapped (%s) but compiled returned %Ld" t b)

let outcome_string = function
  | Ok v -> Printf.sprintf "Ok %Ld" v
  | Error t -> Printf.sprintf "Error %S" t

(* Any two engines under the same strategy: observationally identical
   means the full counter record too — the lockstep contract at whole-run
   granularity. [na]/[nb] name the engines for the report. *)
let compare_engines ~na ~nb (ea, ca) (eb, cb) =
  if ea.x_outcome <> eb.x_outcome then
    Some
      (Printf.sprintf "outcome: %s %s, %s %s" na (outcome_string ea.x_outcome) nb
         (outcome_string eb.x_outcome))
  else if not (String.equal ea.x_memory eb.x_memory) then
    Some
      (Printf.sprintf "final memory differs between engines (first diff at byte %d)"
         (first_diff ea.x_memory eb.x_memory))
  else if ea.x_pages <> eb.x_pages then Some "memory size differs between engines"
  else if ea.x_globals <> eb.x_globals then Some "globals differ between engines"
  else if ca.c_counters <> cb.c_counters then
    Some
      (Printf.sprintf "counters differ: %s %d instrs / %d cycles, %s %d / %d" na
         ca.c_counters.Machine.instructions ca.c_counters.Machine.cycles nb
         cb.c_counters.Machine.instructions cb.c_counters.Machine.cycles)
  else if ca.c_dtlb <> cb.c_dtlb then
    Some (Printf.sprintf "dTLB misses differ: %s %d, %s %d" na ca.c_dtlb nb cb.c_dtlb)
  else if ca.c_dcache <> cb.c_dcache then
    Some (Printf.sprintf "dcache misses differ: %s %d, %s %d" na ca.c_dcache nb cb.c_dcache)
  else None

(* The LFI triple: the native lowering, its LFI rewrite, and the LFI+Segue
   rewrite must agree among themselves (the native arm has no Wasm bounds
   semantics, so it is only compared to its own rewrites — and only tame
   programs reach here). All-trapped counts as agreement; the machine's
   trap surfaces as [Failure] from the measurement path. *)
let lfi_arms m args64 =
  let attempt name f =
    match f () with
    | (r : Lfi.measurement) -> (name, Ok (Int64.logand r.Lfi.result 0xFFFF_FFFFL))
    | exception Failure msg -> (name, Error msg)
    | exception Runtime.Fault f -> (name, Error (Runtime.fault_name f))
    | exception Invalid_argument msg -> (name, Error ("invalid: " ^ msg))
  in
  [
    attempt "native" (fun () -> Lfi.run_native m ~entry:"run" ~args:args64);
    attempt "lfi" (fun () -> Lfi.run_lfi ~segue:false m ~entry:"run" ~args:args64);
    attempt "lfi-segue" (fun () -> Lfi.run_lfi ~segue:true m ~entry:"run" ~args:args64);
  ]

let lfi_agreement arms =
  match arms with
  | (n0, first) :: rest ->
      List.fold_left
        (fun acc (n, r) ->
          match acc with
          | Some _ -> acc
          | None -> (
              match (first, r) with
              | Ok a, Ok b when Int64.equal a b -> None
              | Error _, Error _ -> None
              | a, b ->
                  Some
                    (Printf.sprintf "%s %s vs %s %s" n0 (outcome_string a) n (outcome_string b))))
        None rest
  | [] -> None

type check_result = {
  executions : int;
  interp_trapped : bool;
  skipped : bool;
  failure : (string * string) option;
}

(* The three-way differential arm: the reference oracle, the compiled
   engine, and the compiled engine with a live trace sink — which runs
   the same blocks as without one, so the arm pins that a sink perturbs
   nothing. [traced] is the arm's flag. *)
let engine_kinds =
  [
    ("step", Machine.Reference, false);
    ("compiled", Machine.Compiled, false);
    ("compiled-traced", Machine.Compiled, true);
  ]

exception Found of string * string

let check_module ?(sanitizer = true) ?(churn = true) ~lfi m args =
  let execs = ref 0 in
  incr execs;
  let interp = run_interp m args in
  let interp_trapped = Result.is_error interp.x_outcome in
  if interp.x_outcome = Error "out of fuel" then
    { executions = !execs; interp_trapped; skipped = true; failure = None }
  else begin
    let failure =
      try
        List.iter
          (fun strategy ->
            let sname = Strategy.name strategy in
            let run_one (ename, kind, traced) =
              incr execs;
              match run_compiled ~sanitizer ~strategy ~kind ~traced m args with
              | r -> (ename, r)
              | exception Runtime.Sanitizer_violation v ->
                  raise
                    (Found
                       ( Printf.sprintf "sanitizer/%s/%s" sname ename,
                         Format.asprintf "%a" Runtime.pp_violation v ))
              | exception Invalid_argument msg ->
                  raise (Found (Printf.sprintf "compile/%s" sname, msg))
              | exception Runtime.Fault f ->
                  raise
                    (Found (Printf.sprintf "fault/%s/%s" sname ename, Runtime.fault_name f))
            in
            let runs = List.map run_one engine_kinds in
            List.iter
              (fun (ename, (ex, _)) ->
                match compare_to_interp interp ex with
                | Some d -> raise (Found (Printf.sprintf "interp-vs-%s/%s" sname ename, d))
                | None -> ())
              runs;
            match runs with
            | (na, a) :: rest ->
                List.iter
                  (fun (nb, b) ->
                    match compare_engines ~na ~nb a b with
                    | Some d ->
                        raise (Found (Printf.sprintf "engines/%s/%s-vs-%s" sname na nb, d))
                    | None -> ())
                  rest
            | [] -> assert false)
          Strategy.all_sfi;
        if churn then begin
          incr execs;
          match run_churned ~sanitizer m args with
          | ex -> (
              match compare_to_interp interp ex with
              | Some d -> raise (Found ("churn", d))
              | None -> ())
          | exception Runtime.Sanitizer_violation v ->
              raise (Found ("churn/sanitizer", Format.asprintf "%a" Runtime.pp_violation v))
          | exception Runtime.Fault f -> raise (Found ("churn/fault", Runtime.fault_name f))
          | exception Failure msg -> raise (Found ("churn", msg))
        end;
        if lfi then begin
          execs := !execs + 3;
          match lfi_agreement (lfi_arms m (List.map value_bits args)) with
          | Some d -> Some ("lfi", d)
          | None -> None
        end
        else None
      with Found (oracle, detail) -> Some (oracle, detail)
    in
    { executions = !execs; interp_trapped; skipped = false; failure }
  end

let check_program ?(sanitizer = true) ?(churn = true) p =
  check_module ~sanitizer ~churn ~lfi:p.p_tame p.p_module p.p_args

(* --- delta-debugging shrinker ------------------------------------------- *)

let rec instr_size = function
  | W.Block (_, b) | W.Loop (_, b) -> 1 + body_size b
  | W.If (_, t, e) -> 1 + body_size t + body_size e
  | _ -> 1

and body_size b = List.fold_left (fun a i -> a + instr_size i) 0 b

let module_size (m : W.module_) =
  Array.fold_left (fun a (f : W.func) -> a + body_size f.W.body) 0 m.W.funcs

(* Secondary measure so same-size simplifications (br_table -> br, const
   halving) still strictly decrease and the greedy loop terminates. *)
let bits_weight v64 =
  let rec go v acc = if Int64.equal v 0L then acc else go (Int64.shift_right_logical v 1) (acc + 1) in
  go v64 0

let rec instr_weight = function
  | W.Const (W.V_i32 v) -> bits_weight (Int64.of_int32 v)
  | W.Const (W.V_i64 v) -> bits_weight v
  | W.Br_table (ts, _) -> 2 + List.length ts
  | W.Block (_, b) | W.Loop (_, b) -> body_weight b
  | W.If (_, t, e) -> body_weight t + body_weight e
  | _ -> 0

and body_weight b = List.fold_left (fun a i -> a + instr_weight i) 0 b

let module_weight (m : W.module_) =
  Array.fold_left (fun a (f : W.func) -> a + body_weight f.W.body) 0 m.W.funcs

let splice arr idx repl =
  Array.to_list
    (Array.concat
       [ Array.sub arr 0 idx; Array.of_list repl; Array.sub arr (idx + 1) (Array.length arr - idx - 1) ])

(* ddmin-style chunk removal: every contiguous chunk, large chunks first. *)
let seq_removals body =
  let arr = Array.of_list body in
  let n = Array.length arr in
  if n = 0 then Seq.empty
  else
    let sizes =
      let rec go s acc = if s >= 1 then go (s / 2) (s :: acc) else acc in
      List.rev (List.sort_uniq compare (go n []))
    in
    List.to_seq sizes
    |> Seq.concat_map (fun s ->
           Seq.init (n - s + 1) (fun start ->
               Array.to_list
                 (Array.append (Array.sub arr 0 start)
                    (Array.sub arr (start + s) (n - start - s)))))

let rec body_candidates body : W.instr list Seq.t =
  Seq.append (seq_removals body) (in_place body)

and in_place body =
  let arr = Array.of_list body in
  Seq.concat_map
    (fun idx -> Seq.map (fun repl -> splice arr idx repl) (instr_candidates arr.(idx)))
    (Seq.init (Array.length arr) Fun.id)

and instr_candidates (i : W.instr) : W.instr list Seq.t =
  match i with
  | W.Block (ty, b) ->
      Seq.append
        (Seq.map (fun b' -> [ W.Block (ty, b') ]) (body_candidates b))
        (Seq.return b (* unwrap; the validator rejects it when labels matter *))
  | W.Loop (ty, b) ->
      Seq.append (Seq.map (fun b' -> [ W.Loop (ty, b') ]) (body_candidates b)) (Seq.return b)
  | W.If (ty, t, e) ->
      Seq.append
        (Seq.append
           (Seq.map (fun t' -> [ W.If (ty, t', e) ]) (body_candidates t))
           (Seq.map (fun e' -> [ W.If (ty, t, e') ]) (body_candidates e)))
        (if ty = None then Seq.return [ W.Drop ] else Seq.empty)
  | W.Const (W.V_i32 v) when v <> 0l ->
      let half = Int32.div v 2l in
      List.to_seq
        (List.map
           (fun c -> [ W.Const (W.V_i32 c) ])
           (if half <> 0l && half <> v then [ 0l; half ] else [ 0l ]))
  | W.Const (W.V_i64 v) when v <> 0L ->
      let half = Int64.div v 2L in
      List.to_seq
        (List.map
           (fun c -> [ W.Const (W.V_i64 c) ])
           (if half <> 0L && half <> v then [ 0L; half ] else [ 0L ]))
  | W.Br_table (_, d) -> Seq.return [ W.Br d ]
  | _ -> Seq.empty

let with_body (m : W.module_) fidx body =
  { m with W.funcs = Array.mapi (fun i f -> if i = fidx then { f with W.body } else f) m.W.funcs }

let minimize ?(budget = 300) ~reproduces m0 =
  let evals = ref 0 in
  let check m =
    if !evals >= budget then false
    else begin
      incr evals;
      try reproduces m with _ -> false
    end
  in
  let rec improve m =
    if !evals >= budget then m
    else begin
      let sz = module_size m and wt = module_weight m in
      let found = ref None in
      (try
         Array.iteri
           (fun fidx (f : W.func) ->
             Seq.iter
               (fun body' ->
                 if !evals >= budget then raise Exit;
                 let m' = with_body m fidx body' in
                 let sz' = module_size m' and wt' = module_weight m' in
                 if (sz' < sz || (sz' = sz && wt' < wt)) && check m' then begin
                   found := Some m';
                   raise Exit
                 end)
               (body_candidates f.W.body))
           m.W.funcs
       with Exit -> ());
      match !found with Some m' -> improve m' | None -> m
    end
  in
  improve m0

(* --- corpus runs -------------------------------------------------------- *)

type divergence = {
  d_seed : int64;
  d_oracle : string;
  d_detail : string;
  d_module : W.module_;
  d_original_size : int;
}

type report = {
  r_programs : int;
  r_executions : int;
  r_interp_traps : int;
  r_lfi_programs : int;
  r_skipped : int;
  r_divergences : divergence list;
}

let run_corpus ?(sanitizer = true) ?(churn = true) ?(minimize_failures = true) ?progress
    ~seed ~count () =
  let execs = ref 0 and traps = ref 0 and lfi_count = ref 0 and skipped = ref 0 in
  let divs = ref [] in
  for i = 0 to count - 1 do
    (match progress with Some f -> f i | None -> ());
    let pseed = Int64.add seed (Int64.of_int i) in
    let p = generate pseed in
    if p.p_tame then incr lfi_count;
    let r = check_program ~sanitizer ~churn p in
    execs := !execs + r.executions;
    if r.interp_trapped then incr traps;
    if r.skipped then incr skipped;
    match r.failure with
    | None -> ()
    | Some (oracle, detail) ->
        let d_module =
          if not minimize_failures then p.p_module
          else
            minimize
              ~reproduces:(fun m ->
                match (check_module ~sanitizer ~churn ~lfi:p.p_tame m p.p_args).failure with
                | Some (o, _) -> String.equal o oracle
                | None -> false)
              p.p_module
        in
        divs :=
          {
            d_seed = pseed;
            d_oracle = oracle;
            d_detail = detail;
            d_module;
            d_original_size = module_size p.p_module;
          }
          :: !divs
  done;
  {
    r_programs = count;
    r_executions = !execs;
    r_interp_traps = !traps;
    r_lfi_programs = !lfi_count;
    r_skipped = !skipped;
    r_divergences = List.rev !divs;
  }

let pp_divergence ppf d =
  Format.fprintf ppf "seed %Ld — oracle %s@.  %s@.  minimized module (%d instrs, from %d):@."
    d.d_seed d.d_oracle d.d_detail (module_size d.d_module) d.d_original_size;
  pp_module ppf d.d_module

let pp_report ppf r =
  Format.fprintf ppf
    "%d programs, %d executions (%d with the LFI triple), %d interpreter traps, %d skipped@."
    r.r_programs r.r_executions r.r_lfi_programs r.r_interp_traps r.r_skipped;
  match r.r_divergences with
  | [] -> Format.fprintf ppf "no divergences@."
  | l ->
      Format.fprintf ppf "%d DIVERGENCE(S):@." (List.length l);
      List.iter (fun d -> pp_divergence ppf d) l

let replay ?(sanitizer = true) ?(churn = true) ppf seed =
  let p = generate seed in
  Format.fprintf ppf "seed %Ld: %s, args [%s]@." p.p_seed
    (if p.p_tame then "tame (LFI oracle on)" else "wild (LFI oracle off)")
    (String.concat "; " (List.map (Format.asprintf "%a" W.pp_value) p.p_args));
  pp_module ppf p.p_module;
  let r = check_program ~sanitizer ~churn p in
  (match r.failure with
  | None ->
      Format.fprintf ppf "no divergence (%d executions%s)@." r.executions
        (if r.skipped then ", interpreter out of fuel: skipped" else "")
  | Some (oracle, detail) -> Format.fprintf ppf "DIVERGENCE [%s]: %s@." oracle detail);
  r

(* --- sanitizer self-test ------------------------------------------------ *)

(* Drive one weakening: [run engine ~sanitized] builds a fresh engine and
   invokes the probe. Disarmed, the probe must run silently to [expect];
   armed, each engine must raise a violation that [ok] accepts, and the
   two reports must agree on everything but the free-text detail — the
   compiled engine reports from inside a batched range, where its
   counters must read as [step]'s would at the faulting instruction. *)
let weakening what ~expect ~ok run =
  let flagged engine =
    match run engine ~sanitized:true with
    | `Result _ -> Error (what ^ ": sanitizer missed it")
    | `Violation v when ok v -> Ok v
    | `Violation v -> Error (Format.asprintf "%s: wrong violation: %a" what Runtime.pp_violation v)
  in
  match run Machine.Compiled ~sanitized:false with
  | `Violation _ -> Error (what ^ ": violation raised with the sanitizer disarmed")
  | `Result (Error k) -> Error (what ^ ": probe trapped without sanitizer: " ^ X.trap_name k)
  | `Result (Ok raw) when Int64.logand raw 0xFFFFFFFFL <> expect ->
      Error (Printf.sprintf "%s: probe returned %Ld, expected %Ld" what raw expect)
  | `Result (Ok _) -> (
      match (flagged Machine.Reference, flagged Machine.Compiled) with
      | (Error _ as e), _ | _, (Error _ as e) -> e
      | Ok r, Ok c ->
          if { r with Runtime.v_detail = "" } = { c with Runtime.v_detail = "" } then
            Ok
              (Printf.sprintf "%s flagged at instruction #%d `%s`" what c.Runtime.v_instr_count
                 c.Runtime.v_instr)
          else
            Error
              (Format.asprintf "%s: engines disagree: reference %a; compiled %a" what
                 Runtime.pp_violation r Runtime.pp_violation c))

(* Weakening 1: Simple allocator, an rw page mapped deep inside the guard
   reservation, and a store that reaches it. The hardware accepts the
   access, the differential oracle cannot see it (the interpreter would
   trap, but here we run the weakened configuration only), so the run is
   silently "fine" — unless the sanitizer is armed, in which case it must
   flag exactly that store, at the faulting instruction. *)
let self_test_guard_hole () =
  let b = B.create ~memory_pages:1 ~max_memory_pages:1 () in
  let f = B.declare b "run" ~params:[] ~results:[ W.I32 ] () in
  B.define b f [ B.i32 0x10_0000; B.i64' 0xDEAD_BEEFL; B.store64 (); B.i32 42 ];
  let m = B.build b in
  let compiled = Codegen.compile (Codegen.default_config ~strategy:Strategy.segue ()) m in
  let hole = ref 0 in
  let run engine ~sanitized =
    let eng =
      Runtime.create_engine ~engine
        ~allocator:(Runtime.Simple { reservation = 4 * Units.gib })
        compiled
    in
    let inst = Runtime.instantiate eng in
    hole := Runtime.heap_base inst + 0x10_0000;
    (match Space.map (Runtime.space eng) ~addr:!hole ~len:Space.page_size ~prot:Prot.rw with
    | Ok () -> ()
    | Error msg -> failwith ("fuzz self-test: map guard hole: " ^ msg));
    if sanitized then Runtime.arm_sanitizer eng;
    try `Result (Runtime.invoke inst "run" []) with Runtime.Sanitizer_violation v -> `Violation v
  in
  weakening "guard-hole store" ~expect:42L run ~ok:(fun v ->
      v.Runtime.v_kind = `Write
      && v.Runtime.v_addr = !hole
      && v.Runtime.v_len = 8
      && v.Runtime.v_attribution = `Slot 0
      && v.Runtime.v_instr <> "<no instruction>")

(* Weakening 2: striped ColorGuard pool, but the sandbox PKRU image in the
   vmctx is overwritten with allow-all — the entry sequence then installs
   a PKRU that can reach every color. Architecturally nothing faults; the
   sanitizer must notice the wrong PKRU on the first data access executed
   under it. *)
let self_test_pkru_swap () =
  let b = B.create ~memory_pages:1 ~max_memory_pages:1 () in
  let f = B.declare b "run" ~params:[] ~results:[ W.I32 ] () in
  B.define b f [ B.i32 64; B.i32 5; B.store32 (); B.i32 7 ];
  let m = B.build b in
  let cfg = { (Codegen.default_config ~strategy:Strategy.segue ()) with Codegen.colorguard = true } in
  let compiled = Codegen.compile cfg m in
  let params =
    {
      Pool.num_slots = 4;
      max_memory_bytes = 4 * Units.mib;
      expected_slot_bytes = 4 * Units.mib;
      guard_bytes = 16 * Units.mib;
      pre_guard_enabled = false;
      num_pkeys_available = 15;
      stripe_enabled = true;
    }
  in
  let layout =
    match Pool.compute params with
    | Ok l -> l
    | Error e -> failwith ("fuzz self-test: pool layout: " ^ e)
  in
  let run engine ~sanitized =
    let eng = Runtime.create_engine ~engine ~allocator:(Runtime.Pool layout) compiled in
    let inst = Runtime.instantiate eng in
    if Runtime.color inst = 0 then failwith "fuzz self-test: pool did not color slot 0";
    Space.write64 (Runtime.space eng)
      (Runtime.vmctx_addr inst + Codegen.vmctx_pkru_sandbox)
      (Int64.of_int Mpk.allow_all);
    if sanitized then Runtime.arm_sanitizer eng;
    try `Result (Runtime.invoke inst "run" []) with Runtime.Sanitizer_violation v -> `Violation v
  in
  weakening "swapped PKRU" ~expect:7L run ~ok:(fun v ->
      let s = v.Runtime.v_detail in
      let rec find i =
        i + 4 <= String.length s && (String.equal (String.sub s i 4) "PKRU" || find (i + 1))
      in
      find 0 && v.Runtime.v_instr <> "<no instruction>")

let self_test () =
  match self_test_guard_hole () with
  | Error _ as e -> e
  | Ok msg1 -> (
      match self_test_pkru_swap () with
      | Error _ as e -> e
      | Ok msg2 -> Ok (msg1 ^ "; " ^ msg2))
