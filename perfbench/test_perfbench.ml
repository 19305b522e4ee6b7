(* Tests of the benchmark's own machinery: percentile reporting, self time
   on a span tree, and allocation counted across a joined domain. *)

open Perfbench

let reportable () =
  let check n expected =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) expected (Pct.reportable ~n)
  in
  (* p99 of 1000 samples has exactly ten above it; of 999, nine. *)
  check 1000 (Some 99.0);
  check 999 (Some 95.0);
  check 10_000 (Some 99.9);
  check 100 (Some 90.0);
  check 20 (Some 50.0);
  check 19 None;
  check 0 None

let tail () =
  let samples = List.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p99 of 1..1000" (Some (99.0, 990.0)) (Pct.tail samples);
  let samples = List.init 200 (fun i -> float_of_int (200 - i)) in
  Alcotest.(check (option (pair (float 0.0) (float 0.0))))
    "p95 of 200 unsorted" (Some (95.0, 190.0)) (Pct.tail samples)

let quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Pct.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

(* root [0, 10] with children [1, 4] and [3, 6] (overlapping: they cover
   [1, 6]) and [8, 9]; the first child has a grandchild [2, 3]. *)
let self_time () =
  let t = Spans.create () in
  let add name parent t0 t1 minor =
    Spans.add t ~name ~parent ~group:0 ~t0 ~t1 ~minor:(0.0, minor) ()
  in
  let root = add "root" (-1) 0.0 10.0 100.0 in
  let a = add "a" root 1.0 4.0 30.0 in
  let _ = add "b" root 3.0 6.0 20.0 in
  let _ = add "c" root 8.0 9.0 10.0 in
  let _ = add "a" a 2.0 3.0 5.0 in
  let layers = Spans.layers t in
  let self name = (List.assoc name layers).Spans.total_self_s in
  Alcotest.(check (float 1e-9)) "root self" 4.0 (self "root");
  Alcotest.(check (float 1e-9)) "a self (two spans)" 3.0 (self "a");
  Alcotest.(check (float 1e-9)) "b self" 3.0 (self "b");
  Alcotest.(check (float 1e-9)) "c self" 1.0 (self "c");
  Alcotest.(check int) "a calls" 2 (List.assoc "a" layers).Spans.calls;
  Alcotest.(check (float 1e-9))
    "root self minor words" 40.0 (List.assoc "root" layers).Spans.total_self_minor

let nested_with_span () =
  let t = Spans.create () in
  Spans.with_span t "outer" (fun () -> Spans.with_span t "inner" (fun () -> ()));
  match Spans.spans t with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer first" "outer" outer.Spans.name;
      Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
      Alcotest.(check bool) "inner inside outer" true
        (inner.Spans.t0 >= outer.Spans.t0 && inner.Spans.t1 <= outer.Spans.t1)
  | _ -> Alcotest.fail "expected two spans"

(* A span around a spawned-and-joined domain sees the domain's
   allocation: 100k cons cells of 3 words each. *)
let joined_domain_alloc () =
  let t = Spans.create () in
  Spans.with_span t "spawn" (fun () ->
      let d =
        Domain.spawn (fun () ->
            let l = ref [] in
            for i = 1 to 100_000 do
              l := i :: !l
            done;
            List.length !l)
      in
      ignore (Domain.join d));
  let minor = (List.assoc "spawn" (Spans.layers t)).Spans.total_self_minor in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words >= 300000" minor) true (minor >= 300_000.0)

let fnv () =
  Alcotest.(check bool) "order-sensitive" true
    (Pct.fnv_int (Pct.fnv_int Pct.fnv_offset 1) 2 <> Pct.fnv_int (Pct.fnv_int Pct.fnv_offset 2) 1)

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [
          Alcotest.test_case "reportable percentile needs ten samples beyond it" `Quick reportable;
          Alcotest.test_case "tail percentile value" `Quick tail;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick quartiles;
          Alcotest.test_case "fnv is order-sensitive" `Quick fnv;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time on a hand-built tree" `Quick self_time;
          Alcotest.test_case "with_span nests" `Quick nested_with_span;
          Alcotest.test_case "quick_stat delta across a joined domain" `Quick joined_domain_alloc;
        ] );
    ]
