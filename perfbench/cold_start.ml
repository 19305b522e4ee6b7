(* cold_start: many distinct small modules from the differential fuzzer's
   generator, each compiled under stock Wasm and under Segue, then given a
   fresh engine, instantiated, invoked once under a fuel bound and
   released. Codegen and translation-on-load dominate; dispatch is small.
   It is the only workload where [Codegen.compile] and
   [Runtime.create_engine] do real work, so a compile cache or eager
   promotion shows up here first. *)

module Strategy = Sfi_core.Strategy
module W = Sfi_wasm.Ast
module Interp = Sfi_wasm.Interp

(* Modules per pass; every pass cold-starts the same modules, so passes
   are identical work and their simulated statistics must match. *)
let modules = 400
let strategies = [| Strategy.wasm_default; Strategy.segue |]

(* A program the reference interpreter does not finish within
   [interp_fuel] Wasm instructions is left out of the inputs. The compiled
   run's fuel bound is far above what any kept program needs (bulk memory
   ops cost one interpreted but many simulated instructions); running out
   fails the run. *)
let interp_fuel = 2_000_000
let fuel = 100_000_000

type program = {
  p_seed : int64;
  m : W.module_;
  args : int64 list;
  expected : int64 option;  (** [None]: the interpreter trapped *)
}

type inputs = { programs : program array }

let value_bits = Invocation.value_bits

let setup spans meter seed =
  let rng = Sfi_util.Prng.create ~seed in
  let programs = ref [] and found = ref 0 in
  while !found < modules do
    let program_seed = Sfi_util.Prng.next_int64 rng in
    let p, reference =
      Calib.time meter @@ fun () ->
      let p = Sfi_fuzz.Fuzz.generate program_seed in
      ( p,
        Spans.with_span spans "wasm.interp" (fun () ->
          let inst = Interp.instantiate p.Sfi_fuzz.Fuzz.p_module in
          match Interp.invoke inst "run" ~fuel:interp_fuel p.Sfi_fuzz.Fuzz.p_args with
          | Ok [ v ] -> Some (Some (value_bits v))
          | Ok _ -> Some (Some 0L)
          | Error _ -> Some None
          | exception Interp.Out_of_fuel -> None) )
    in
    match reference with
    | None -> ()
    | Some expected ->
        incr found;
        programs :=
          {
            p_seed = p.Sfi_fuzz.Fuzz.p_seed;
            m = p.Sfi_fuzz.Fuzz.p_module;
            args = List.map value_bits p.Sfi_fuzz.Fuzz.p_args;
            expected;
          }
          :: !programs
  done;
  { programs = Array.of_list (List.rev !programs) }

let digest i = Array.fold_left (fun h p -> Pct.fnv_int64 h p.p_seed) Pct.fnv_offset i.programs

type run = { program : program; strategy : int; r : Invocation.t }

(* The fuzzer's agreement rule at the granularity this workload checks:
   the same result, or both sides trapped. *)
let agrees { program; r; _ } =
  match (program.expected, r.Invocation.outcome) with
  | Some a, Ok b -> Int64.equal a b
  | None, Error e -> not (String.starts_with ~prefix:"fault" e)
  | _ -> false

let pass spans meter inputs =
  let runs =
    Array.to_list inputs.programs
    |> List.mapi (fun i program ->
           List.init (Array.length strategies) (fun strategy ->
               let r =
                 Calib.time meter (fun () ->
                     Invocation.run spans ~group:i ~fuel ~strategy:strategies.(strategy)
                       program.m program.args)
               in
               { program; strategy; r }))
    |> List.concat
  in
  let rs = List.map (fun run -> run.r) runs in
  {
    Harness.ops = float_of_int (List.length runs);
    attempted = List.length runs;
    fingerprint = Invocation.fingerprint rs;
    counts = Invocation.counts rs;
    samples_us = List.map (fun r -> r.Invocation.latency_us) rs;
    check =
      (fun () ->
        List.filter_map
          (fun run ->
            if agrees run then None
            else
              Some
                (Printf.sprintf "fuzz seed %Ld under %s: %s, interpreter %s" run.program.p_seed
                   (Strategy.name strategies.(run.strategy))
                   (Invocation.outcome_string run.r.Invocation.outcome)
                   (match run.program.expected with
                   | Some v -> Int64.to_string v
                   | None -> "trapped")))
          runs);
  }

let workload =
  Harness.Workload
    { Harness.name = "cold_start"; domains = 1; ops_unit = "module cold starts"; setup; digest; pass }
