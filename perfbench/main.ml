(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints a report (host fingerprint, every metric with its unit, clock
   and sample count, the correctness gates, the simulated-statistics
   fingerprint) and, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the traced passes' spans are written as Chrome trace JSON under
   .perfbench/. Exits 1 when a gate fails, 2 on bad arguments. *)

open Perfbench

let workloads =
  [
    ("kernels", Kernels.workload);
    ("cold_start", Cold_start.workload);
    ("faas_edge", Faas.edge);
    ("faas_churn", Faas.churn);
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get key default = Option.value (List.assoc_opt key opts) ~default in
  List.iter
    (fun (k, _) -> if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    opts;
  let workload = get "workload" "" in
  let seed = Int64.of_string_opt (get "seed" "1") in
  let seconds = float_of_string_opt (get "seconds" "15") in
  let trace = get "trace" "0" in
  match (List.assoc_opt workload workloads, seed, seconds, trace) with
  | Some w, Some seed, Some seconds, ("0" | "1") when seconds > 0.0 ->
      (workload, w, seed, seconds, trace = "1")
  | _ -> usage ()

(* --- host fingerprint ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

(* The commit, read from .git without running git; "none" outside a
   repository. *)
let commit () =
  let git f = String.trim (read_file (Filename.concat ".git" f)) in
  match git "HEAD" with
  | exception Sys_error _ -> "none"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match git ref_ with
      | id -> id
      | exception Sys_error _ -> (
          match
            String.split_on_char '\n' (git "packed-refs")
            |> List.find_map (fun line ->
                   match String.split_on_char ' ' line with
                   | [ id; r ] when r = ref_ -> Some id
                   | _ -> None)
          with
          | Some id -> id
          | None | (exception Sys_error _) -> "unknown"))
  | id -> id

(* Digest of the program's sources (lib/): identifies the code where the
   checkout is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  match files "lib" with
  | exception Sys_error _ -> "unknown"
  | fs -> Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun f -> f ^ read_file f) fs)))

(* --- recorded fingerprints ------------------------------------------------ *)

(* perfbench/fingerprints.txt: "workload seed fingerprint" per line. *)
let recorded workload seed =
  match read_file "perfbench/fingerprints.txt" with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ w; s; fp ] when w = workload && Int64.of_string_opt s = Some seed ->
                 Int64.of_string_opt fp
             | _ -> None)

(* --- report ---------------------------------------------------------------- *)

let finite v = if Float.is_finite v then v else 0.0

let print_metric (m : Harness.metric) =
  Printf.printf "  %-38s %16.6g %-13s %-16s n=%d\n" m.Harness.name (finite m.Harness.value)
    m.Harness.unit_ m.Harness.clock m.Harness.n

(* The end-to-end view of each workload under its own names: the headline
   rate, the simulated outcome, and the failure share. *)
let workload_view name (r : Harness.result) ~failed =
  let find l n = List.find (fun (m : Harness.metric) -> m.Harness.name = n) l in
  let e2e n = find r.Harness.e2e n and layer n = find r.Harness.per_layer n in
  let rename (m : Harness.metric) ?(scale = 1.0) ?unit_ n =
    { m with Harness.name = n; value = m.Harness.value *. scale;
      unit_ = Option.value unit_ ~default:m.Harness.unit_ }
  in
  let rate = e2e "ops_per_s" in
  let view =
    match name with
    | "kernels" ->
        [
          rename rate "sim_minstr_per_s" ~scale:1e-6 ~unit_:"Minstr/s";
          rename (layer "sim.segue_elim_err_pp") "segue_elim_err_pp";
        ]
    | "cold_start" ->
        [ rename rate "modules_per_s"; layer "cold_start_p50_us"; layer "cold_start_p99_us" ]
    | _ ->
        [
          rename rate "sim_req_per_s";
          rename (layer "sim.goodput_rps") "sim_goodput_rps";
          rename (layer "sim.p99_us") "sim_p99_us";
        ]
  in
  view
  @ [
      {
        Harness.name = "failed_frac";
        value = float_of_int failed /. float_of_int r.Harness.attempted;
        unit_ = "ratio";
        clock = "-";
        n = r.Harness.attempted;
      };
    ]

let json_metrics ms =
  List.map
    (fun (m : Harness.metric) ->
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Harness.name (finite m.Harness.value)
        m.Harness.unit_)
    ms
  |> String.concat ", "

let () =
  let name, w, seed, seconds, trace = parse Sys.argv in
  if not (Sys.file_exists "perfbench/fingerprints.txt") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  Printf.printf "perfbench %s seed=%Ld seconds=%g trace=%b\n" name seed seconds trace;
  Printf.printf "host: nproc=%d cpu=%S ocaml=%s commit=%s source_md5=%s\n%!"
    (Domain.recommended_domain_count ()) (cpu_model ()) Sys.ocaml_version (commit ())
    (source_digest ());
  let r = Harness.run w ~seed ~seconds ~trace in
  let failed = List.length r.Harness.failures in
  Printf.printf "end-to-end (ops = %s):\n" (Harness.ops_unit w);
  List.iter print_metric r.Harness.e2e;
  print_endline "workload view:";
  List.iter print_metric (workload_view name r ~failed);
  if trace then begin
    print_endline "per-layer:";
    List.iter print_metric r.Harness.per_layer;
    let file = Printf.sprintf ".perfbench/spans-%s-%Ld.json" name seed in
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (Spans.chrome_json ~process_name:("perfbench " ^ name) r.Harness.spans));
    Printf.printf "spans: %s\n" file
  end;
  let fp = r.Harness.fingerprint in
  Printf.printf "sim_fingerprint: 0x%016Lx\nsim_identical: %s\n" fp
    (match recorded name seed with
    | Some f when f = fp -> "yes"
    | Some f -> Printf.sprintf "no (recorded 0x%016Lx)" f
    | None -> "unrecorded");
  Printf.printf "gates: %d of %d operations failed\n" failed r.Harness.attempted;
  List.iteri (fun i msg -> if i < 20 then Printf.printf "  FAIL %s\n" msg) r.Harness.failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) r.Harness.attempted failed
    (json_metrics (if trace then r.Harness.per_layer else r.Harness.e2e));
  exit (if failed = 0 then 0 else 1)
