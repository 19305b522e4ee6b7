(* Host-speed calibration.

   The benchmark runs on shared machines whose speed drifts by tens of
   percent within seconds (frequency, a busy hyperthread sibling, cache
   pressure from neighbours). To keep run-to-run spread small, timed work
   is normalised by a reference loop measured right next to it: a tiny
   closure-threaded register machine over a 1 MiB byte memory, which has
   the same character as the program's own dispatch loop (indirect calls,
   dependent loads, data-dependent branches, a trickle of allocation) but
   is part of the benchmark, so no change to the program moves it.

   [normalised t c] rescales host seconds [t], measured while the loop
   took [c] seconds, to a host on which the loop takes [reference_s]. *)

let reference_s = 0.005
let mem_size = 1 lsl 20
let code_len = 256
let steps = 400_000

type vm = { regs : int array; mem : Bytes.t; mutable junk : int list }

let new_vm () =
  { regs = Array.init 8 (fun i -> (i * 0x2545F491) + 1); mem = Bytes.make mem_size '\001'; junk = [] }

let op_of rng =
  let r () = Sfi_util.Prng.int rng 8 in
  let a = r () and b = r () and c = r () in
  match Sfi_util.Prng.int rng 6 with
  | 0 -> fun vm pc -> vm.regs.(a) <- vm.regs.(b) + vm.regs.(c); pc + 1
  | 1 -> fun vm pc -> vm.regs.(a) <- (vm.regs.(b) * 0x9E3779B1) lxor vm.regs.(c); pc + 1
  | 2 ->
      fun vm pc ->
        vm.regs.(a) <- Bytes.get_int32_le vm.mem (vm.regs.(b) land (mem_size - 4)) |> Int32.to_int;
        pc + 1
  | 3 ->
      fun vm pc ->
        Bytes.set_int32_le vm.mem (vm.regs.(b) land (mem_size - 4)) (Int32.of_int vm.regs.(c));
        pc + 1
  | 4 -> fun vm pc -> if vm.regs.(b) land 1 = 0 then (pc + 1 + (c * 7)) land (code_len - 1) else pc + 1
  | _ ->
      fun vm pc ->
        vm.junk <- (match vm.junk with _ :: _ :: _ :: _ :: rest -> rest | l -> vm.regs.(a) :: l);
        pc + 1

let code =
  let rng = Sfi_util.Prng.create ~seed:0xCA11BL in
  Array.init code_len (fun _ -> op_of rng)

let main_vm = new_vm ()

let run_loop vm =
  let t0 = Unix.gettimeofday () in
  let pc = ref 0 in
  for _ = 1 to steps do
    pc := code.(!pc land (code_len - 1)) vm !pc
  done;
  ignore (Sys.opaque_identity (vm.regs, vm.junk));
  Unix.gettimeofday () -. t0

(* One run of the reference loop on each of [domains] cores at once;
   returns the slowest run's host seconds. A multi-domain unit finishes
   when its last domain does, so the slowest core paces it. *)
let measure ?(domains = 1) () =
  let others =
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> run_loop (new_vm ())))
  in
  let t = run_loop main_vm in
  List.fold_left (fun acc d -> Float.max acc (Domain.join d)) t others

let normalised t c = t *. reference_s /. c

(* A meter normalises a sequence of timed units. Units accumulate until
   [gap_s] of host time is pending; then the reference loop runs again and
   the pending units are rescaled by the mean of the two calibrations
   that bracket them. The reference loop itself is never inside a unit. *)
let gap_s = 0.05

type meter = {
  domains : int;
  mutable c_prev : float;  (** the last calibration, host seconds *)
  mutable pending : float;  (** raw unit time since that calibration *)
  mutable raw : float;  (** total raw host seconds of all units *)
  mutable norm : float;  (** total normalised seconds of settled units *)
  mutable calibs : float list;  (** every calibration, host seconds *)
}

let meter ?(domains = 1) () =
  let c = measure ~domains () in
  { domains; c_prev = c; pending = 0.0; raw = 0.0; norm = 0.0; calibs = [ c ] }

let settle m =
  if m.pending > 0.0 then begin
    let c = measure ~domains:m.domains () in
    m.norm <- m.norm +. normalised m.pending ((m.c_prev +. c) /. 2.0);
    m.pending <- 0.0;
    m.c_prev <- c;
    m.calibs <- c :: m.calibs
  end

let time m f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t = Unix.gettimeofday () -. t0 in
  m.pending <- m.pending +. t;
  m.raw <- m.raw +. t;
  if m.pending >= gap_s then settle m;
  v

(* [(raw, normalised)] seconds of everything [f] timed on [m]. *)
let delta m f =
  settle m;
  let r0 = m.raw and n0 = m.norm in
  let v = f () in
  settle m;
  (v, m.raw -. r0, m.norm -. n0)
