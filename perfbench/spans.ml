(* In-memory span recorder for the benchmark's own call sites.

   A span covers one call into a layer of the program (Codegen.compile,
   Runtime.invoke, Shard.run, ...). It records its name, host start/end
   times, the enclosing span, a group id (one module or one pass) and the
   allocation counters at both ends. Spans stay in memory; [chrome_json]
   renders them at exit.

   Allocation is read from [Gc.quick_stat], not [Gc.minor_words]: on OCaml
   5.1 [quick_stat] folds in the counters of domains that have already
   terminated, so a span around [Shard.run] sees what its joined worker
   domains allocated. [Gc.minor_words] only counts the calling domain. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  group : int;
  t0 : float;  (** host seconds *)
  t1 : float;
  minor0 : float;  (** words allocated in minor heaps *)
  minor1 : float;
  major0 : float;  (** major-heap words, promotions included *)
  major1 : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** most recent first *)
  mutable count : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
}

let create () = { enabled = true; spans = []; count = 0; stack = [] }

(* A disabled recorder: [with_span] is a plain call and records nothing. *)
let disabled () = { enabled = false; spans = []; count = 0; stack = [] }
let now = Unix.gettimeofday

let alloc () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(* Add a finished span. Used by [with_span] and by tests that build a tree
   by hand. Returns the span's id. *)
let add t ~name ~parent ~group ~t0 ~t1 ?(minor = (0.0, 0.0)) ?(major = (0.0, 0.0)) () =
  let id = t.count in
  t.count <- id + 1;
  t.spans <-
    {
      id;
      name;
      parent;
      group;
      t0;
      t1;
      minor0 = fst minor;
      minor1 = snd minor;
      major0 = fst major;
      major1 = snd major;
    }
    :: t.spans;
  id

(* Ids are assigned at [add], which happens when a span closes, so an
   open span reserves its id up front and children point at it. *)
let with_span t ?(group = 0) name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let id = t.count in
    t.count <- id + 1;
    t.stack <- id :: t.stack;
    let mi0, ma0 = alloc () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let mi1, ma1 = alloc () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          name;
          parent;
          group;
          t0;
          t1;
          minor0 = mi0;
          minor1 = mi1;
          major0 = ma0;
          major1 = ma1;
        }
        :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans
let duration s = s.t1 -. s.t0

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s) spans;
  fun id -> Hashtbl.find_all tbl id

(* Self time: the span's duration minus the part of it its children
   cover. Self allocation: inclusive counter delta minus the children's
   inclusive deltas (allocation intervals cannot overlap, children run
   one after another inside their parent). *)
type self = { self_s : float; self_minor : float; self_major : float }

let self_of t =
  let all = spans t in
  let kids = children_of all in
  fun s ->
    let cs = kids s.id in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cs in
    {
      self_s = duration s -. covered ~lo:s.t0 ~hi:s.t1 (List.map (fun c -> (c.t0, c.t1)) cs);
      self_minor = s.minor1 -. s.minor0 -. sum (fun c -> c.minor1 -. c.minor0);
      self_major = s.major1 -. s.major0 -. sum (fun c -> c.major1 -. c.major0);
    }

type layer = {
  calls : int;
  total_self_s : float;
  total_self_minor : float;
  total_self_major : float;
}

(* Per-name totals of self time and self allocation, sorted by name. *)
let layers t =
  let self = self_of t in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v = self s in
      let prev =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None -> { calls = 0; total_self_s = 0.0; total_self_minor = 0.0; total_self_major = 0.0 }
      in
      Hashtbl.replace tbl s.name
        {
          calls = prev.calls + 1;
          total_self_s = prev.total_self_s +. v.self_s;
          total_self_minor = prev.total_self_minor +. v.self_minor;
          total_self_major = prev.total_self_major +. v.self_major;
        })
    (spans t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event JSON ("X" complete events, microseconds relative to
   the first span), loadable in Perfetto or chrome://tracing. *)
let chrome_json ?(process_name = "perfbench") t =
  let all = spans t in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":%s}}"
       (json_string process_name));
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           ",{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%d,\"minor_words\":%.0f,\"major_words\":%.0f}}"
           (json_string s.name)
           ((s.t0 -. origin) *. 1e6)
           (duration s *. 1e6)
           s.id s.parent s.group (s.minor1 -. s.minor0) (s.major1 -. s.major0)))
    all;
  Buffer.add_string b "]}\n";
  Buffer.contents b
