(* kernels: the Figure 3 SPEC CPU 2006 set under native, wasm2c (reserved
   base register) and Segue. Each (kernel, strategy) pair is compiled,
   loaded, instantiated and invoked once per pass on the runtime's default
   engine, in an order drawn from the seed. This is the paper's headline
   and the machine's dispatch / superblock and vmem dTLB / dcache hot path:
   nearly all host time is in [Runtime.invoke]. *)

module K = Sfi_workloads.Kernel
module Strategy = Sfi_core.Strategy
module Machine = Sfi_machine.Machine
module W = Sfi_wasm.Ast
module Interp = Sfi_wasm.Interp

(* Kernel inputs are the paper's sizes divided by [scale_down], so a pass
   over all thirty pairs takes about two host seconds and a run measures
   several passes. The seed adds up to 1/64 to each size: different seeds
   give different inputs at nearly the same amount of work. *)
let scale_down = 4
let strategies = [| Strategy.native; Strategy.wasm_default; Strategy.segue |]

type job = {
  kernel : int;  (** index into [Spec2006.all] *)
  strategy : int;  (** index into [strategies] *)
  name : string;
  module_ : W.module_;
  arg : int64;
  expected : int64;  (** the reference interpreter's result *)
}

type inputs = { jobs : job array (* in the seeded run order *) }

let reference spans (k : K.t) m arg =
  Spans.with_span spans "wasm.interp" (fun () ->
      let inst = Interp.instantiate m in
      match Interp.invoke inst "run" ~fuel:max_int [ W.V_i32 (Int32.of_int arg) ] with
      | Ok [ v ] -> Invocation.value_bits v
      | Ok _ | Error _ -> failwith (k.K.name ^ ": reference run failed"))

let setup spans meter seed =
  let rng = Sfi_util.Prng.create ~seed in
  let kernels = Array.of_list Sfi_workloads.Spec2006.all in
  let jobs =
    Array.mapi
      (fun ki (k : K.t) ->
        Calib.time meter @@ fun () ->
        let base = max 1 (Int64.to_int (List.hd k.K.args) / scale_down) in
        let arg = base + Sfi_util.Prng.int rng ((base / 64) + 1) in
        let wasm = Lazy.force k.K.wasm in
        let wasm_ref = reference spans k wasm arg in
        (* the native baseline compiles its own module when the layouts differ *)
        let native, native_ref =
          match k.K.native with
          | Some n -> (Lazy.force n, reference spans k (Lazy.force n) arg)
          | None -> (wasm, wasm_ref)
        in
        Array.mapi
          (fun si (s : Strategy.t) ->
            let m, expected =
              if s.Strategy.addressing = Strategy.Direct then (native, native_ref)
              else (wasm, wasm_ref)
            in
            {
              kernel = ki;
              strategy = si;
              name = Printf.sprintf "%s/%s" k.K.name (Strategy.name s);
              module_ = m;
              arg = Int64.of_int arg;
              expected;
            })
          strategies)
      kernels
    |> Array.to_list |> Array.concat
  in
  Sfi_util.Prng.shuffle rng jobs;
  { jobs }

let digest i =
  Array.fold_left
    (fun h j -> Pct.fnv_int64 (Pct.fnv_string h j.name) j.arg)
    Pct.fnv_offset i.jobs

(* The paper's Figure 3 summary: the share of Wasm's geomean overhead over
   native that Segue removes, against the published 44.7%. [runs] are in
   (kernel, strategy) order. *)
let segue_elim_err_pp runs =
  let ns = Array.length strategies in
  let cycles = Array.of_list (List.map (fun (_, r) -> float_of_int r.Invocation.counters.Machine.cycles) runs) in
  let norms s = List.init (Array.length cycles / ns) (fun k -> cycles.((k * ns) + s) /. cycles.(k * ns)) in
  let gb = Sfi_util.Stats.geomean (norms 1) and gs = Sfi_util.Stats.geomean (norms 2) in
  Float.abs (Sfi_util.Stats.overhead_eliminated ~baseline:1.0 ~unopt:gb ~opt:gs -. 44.7)

let pass spans meter inputs =
  let runs =
    Array.to_list inputs.jobs
    |> List.map (fun job ->
           ( job,
             Calib.time meter (fun () ->
                 Invocation.run spans ~strategy:strategies.(job.strategy) job.module_ [ job.arg ])
           ))
    |> List.sort (fun (a, _) (b, _) -> compare (a.kernel, a.strategy) (b.kernel, b.strategy))
  in
  {
    Harness.ops = List.assoc "instructions" (Invocation.counts (List.map snd runs));
    attempted = List.length runs;
    fingerprint = Invocation.fingerprint (List.map snd runs);
    counts =
      Invocation.counts (List.map snd runs) @ [ ("sim.segue_elim_err_pp", segue_elim_err_pp runs) ];
    samples_us = [];
    check =
      (fun () ->
        List.filter_map
          (fun (job, r) ->
            match r.Invocation.outcome with
            | Ok v when Int64.equal v job.expected -> None
            | o ->
                Some
                  (Printf.sprintf "%s: %s, reference %Ld" job.name (Invocation.outcome_string o)
                     job.expected))
          runs);
  }

let workload =
  Harness.Workload
    { Harness.name = "kernels"; domains = 1; ops_unit = "simulated instructions"; setup; digest; pass }
