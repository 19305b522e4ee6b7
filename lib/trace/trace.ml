(* Structured tracing: a ring of integer-coded events.

   Events are stored column-wise in parallel int arrays so that emitting
   never allocates once the arrays are grown: the hot-path cost of an
   enabled sink is one clock call and five array stores. A keep-first
   ring starts at [initial_slots] and doubles its arrays as it fills, up
   to its capacity, so a ring that catches a few thousand events does not
   pin the major heap for 65,536. Event identity is a small packed code
   [(name_id lsl 2) lor phase]; the name/category tables below are the
   single source of truth for the vocabulary. *)

type t = {
  active : bool;
  cap : int;
  wrap : bool;
      (* false: keep-first (drops count overflow). true: keep-last tail
         ring — overflow overwrites the oldest event; [head] marks the
         logical start once wrapped. *)
  mutable ts : int array;
  mutable code : int array;
  mutable track : int array;
  mutable a0 : int array;
  mutable a1 : int array;
      (* The five columns, all of one length between [len] and [cap]. *)
  mutable len : int;
  mutable head : int;
  mutable dropped : int;
  mutable clock : unit -> int;
  mutable shard_stride : int;
      (* 0 = unsharded. A merged ring records the track-namespacing
         stride so exports can label track [s * stride + k] as shard
         [s], sandbox [k]. *)
  mutable tee : t option;
      (* Secondary sink (the flight recorder's tail ring). Events are
         forwarded after the primary store, with the same timestamp, so
         both sinks see one coherent stream. Checked only inside the
         [active] branch — the disabled-sink fast path is untouched. *)
}

(* Event vocabulary. Index = name id; the two tables must stay in sync. *)
let name_table =
  [|
    "call";
    "hostcall.pure";
    "hostcall.readonly";
    "hostcall.full";
    "instantiate.cold";
    "instantiate.warm";
    "recycle";
    "kill";
    "fault";
    "pkru.write";
    "tlb.fill";
    "tlb.evict";
    "fuel.checkpoint";
    "request";
    "admission.admit";
    "admission.queue";
    "admission.shed";
    "breaker.open";
    "breaker.half_open";
    "breaker.close";
    "degrade.step";
    "tier.promote.pure";
    "tier.promote.load";
    "tier.promote.hazard";
    "slo.burn_start";
    "slo.burn_stop";
  |]

let cat_table =
  [|
    "transition";
    "transition";
    "transition";
    "transition";
    "lifecycle";
    "lifecycle";
    "lifecycle";
    "lifecycle";
    "fault";
    "pkru";
    "tlb";
    "tlb";
    "fuel";
    "request";
    "admission";
    "admission";
    "admission";
    "breaker";
    "breaker";
    "breaker";
    "admission";
    "tier";
    "tier";
    "tier";
    "slo";
    "slo";
  |]

let ph_begin = 0
let ph_end = 1
let ph_instant = 2
let pack name ph = (name lsl 2) lor ph
let code_name c = c lsr 2
let code_phase c = c land 3
let zero_clock () = 0

let null =
  {
    active = false;
    cap = 0;
    wrap = false;
    ts = [||];
    code = [||];
    track = [||];
    a0 = [||];
    a1 = [||];
    len = 0;
    head = 0;
    dropped = 0;
    clock = zero_clock;
    shard_stride = 0;
    tee = None;
  }

(* A ring of [capacity] events whose columns start [slots] long. The
   readers that fill a ring by index ([logical], [merge_shards]) ask for
   every slot up front. *)
let make_ring ?slots ~wrap capacity =
  if capacity <= 0 then invalid_arg "Trace.create_ring: capacity must be > 0";
  let n = Option.value slots ~default:capacity in
  {
    active = true;
    cap = capacity;
    wrap;
    ts = Array.make n 0;
    code = Array.make n 0;
    track = Array.make n 0;
    a0 = Array.make n 0;
    a1 = Array.make n 0;
    len = 0;
    head = 0;
    dropped = 0;
    clock = zero_clock;
    shard_stride = 0;
    tee = None;
  }

let initial_slots = 1024

let create_ring ?(capacity = 65536) () =
  make_ring ~slots:(min capacity initial_slots) ~wrap:false capacity

let create_tail_ring ?(capacity = 256) () = make_ring ~wrap:true capacity
let enabled t = t.active
let set_clock t f = t.clock <- f
let now t = t.clock ()
let set_tee t sink = if t.active then t.tee <- sink

let clear t =
  t.len <- 0;
  t.head <- 0;
  t.dropped <- 0

let length t = t.len
let capacity t = t.cap
let dropped t = t.dropped

(* Double the columns of a keep-first ring that has filled them, up to
   its capacity. *)
let[@inline never] grow t =
  let n = min t.cap (2 * Array.length t.ts) in
  let widen a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.ts <- widen t.ts;
  t.code <- widen t.code;
  t.track <- widen t.track;
  t.a0 <- widen t.a0;
  t.a1 <- widen t.a1

let[@inline] store t ts code track a0 a1 =
  if t.len < t.cap then begin
    (* [head] is nonzero only once a tail ring has wrapped, and then
       [len = cap], so an unfilled ring always appends at [len]. *)
    let i = t.len in
    if i = Array.length t.ts then grow t;
    t.ts.(i) <- ts;
    t.code.(i) <- code;
    t.track.(i) <- track;
    t.a0.(i) <- a0;
    t.a1.(i) <- a1;
    t.len <- t.len + 1
  end
  else if t.wrap then begin
    (* Tail ring: overwrite the oldest event in place and advance the
       logical start; overwritten events still count as dropped. *)
    let i = t.head in
    t.ts.(i) <- ts;
    t.code.(i) <- code;
    t.track.(i) <- track;
    t.a0.(i) <- a0;
    t.a1.(i) <- a1;
    t.head <- (if i + 1 = t.cap then 0 else i + 1);
    t.dropped <- t.dropped + 1
  end
  else t.dropped <- t.dropped + 1

let[@inline] emit t code track a0 a1 =
  if t.active then begin
    let ts = t.clock () in
    store t ts code track a0 a1;
    match t.tee with
    | Some r -> if r.active then store r ts code track a0 a1
    | None -> ()
  end

(* Readers below index events from 0 without wrap awareness; a wrapped
   tail ring is first linearized into a plain ring in logical (oldest
   to newest) order. Unwrapped rings pass through untouched, so the
   common case pays nothing. *)
let logical t =
  if t.head = 0 then t
  else begin
    let n = t.len in
    let out = make_ring ~wrap:false (max 1 n) in
    for i = 0 to n - 1 do
      let j = (t.head + i) mod t.cap in
      out.ts.(i) <- t.ts.(j);
      out.code.(i) <- t.code.(j);
      out.track.(i) <- t.track.(j);
      out.a0.(i) <- t.a0.(j);
      out.a1.(i) <- t.a1.(j)
    done;
    out.len <- n;
    out.dropped <- t.dropped;
    out.shard_stride <- t.shard_stride;
    out
  end

let call_begin t ~sandbox = emit t (pack 0 ph_begin) sandbox 0 0
let call_end t ~sandbox = emit t (pack 0 ph_end) sandbox 0 0

let hostcall t ~sandbox ~cls ~cycles =
  let cls = if cls < 0 || cls > 2 then 2 else cls in
  emit t (pack (1 + cls) ph_instant) sandbox cycles 0

let instantiate t ~sandbox ~warm =
  emit t (pack (if warm then 5 else 4) ph_instant) sandbox 0 0

let recycle t ~sandbox ~pages = emit t (pack 6 ph_instant) sandbox pages 0
let kill t ~sandbox = emit t (pack 7 ph_instant) sandbox 0 0

let fault t ~sandbox ~addr ~write =
  emit t (pack 8 ph_instant) sandbox addr (if write then 1 else 0)

let pkru_write t ~value = emit t (pack 9 ph_instant) (-1) value 0
let tlb_fill t ~page = emit t (pack 10 ph_instant) (-1) page 0
let tlb_evict t ~page = emit t (pack 11 ph_instant) (-1) page 0

let fuel_checkpoint t ~sandbox ~executed =
  emit t (pack 12 ph_instant) sandbox executed 0

let request_begin t ~tenant = emit t (pack 13 ph_begin) tenant 0 0

let request_end t ~tenant ~ok =
  emit t (pack 13 ph_end) tenant 0 (if ok then 1 else 0)

let admission_admit t ~tenant ~sojourn = emit t (pack 14 ph_instant) tenant sojourn 0

let admission_queue t ~tenant ~depth = emit t (pack 15 ph_instant) tenant depth 0

let admission_shed t ~tenant ~sojourn ~reason =
  emit t (pack 16 ph_instant) tenant sojourn reason

let breaker_open t ~tenant ~backoff = emit t (pack 17 ph_instant) tenant backoff 0
let breaker_half_open t ~tenant = emit t (pack 18 ph_instant) tenant 0 0
let breaker_close t ~tenant = emit t (pack 19 ph_instant) tenant 0 0
let degrade_step t ~level = emit t (pack 20 ph_instant) (-1) level 0

(* [cls] is the promoted block's class rank (0 = pure, 1 = load,
   2 = hazard; bypass blocks are never promoted); each class gets its own
   event name so occupancy per class falls out of a name histogram. *)
let tier_promote t ~cls ~block ~len =
  let name = match cls with 0 -> 21 | 1 -> 22 | _ -> 23 in
  emit t (pack name ph_instant) (-1) block len

(* Burn rates are carried in milliburns (burn rate x 1000, truncated)
   so the integer-only event payload keeps three decimal places; [window]
   is 0 for the fast window, 1 for the slow one. *)
let slo_burn_start t ~tenant ~burn_milli ~window =
  emit t (pack 24 ph_instant) tenant burn_milli window

let slo_burn_stop t ~tenant ~burn_milli ~window =
  emit t (pack 25 ph_instant) tenant burn_milli window

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

type event = {
  ev_ts : int;
  ev_cat : string;
  ev_name : string;
  ev_phase : char;
  ev_track : int;
  ev_a0 : int;
  ev_a1 : int;
}

let phase_char = function 0 -> 'B' | 1 -> 'E' | _ -> 'i'

let event_at t i =
  let c = t.code.(i) in
  let name = code_name c in
  {
    ev_ts = t.ts.(i);
    ev_cat = cat_table.(name);
    ev_name = name_table.(name);
    ev_phase = phase_char (code_phase c);
    ev_track = t.track.(i);
    ev_a0 = t.a0.(i);
    ev_a1 = t.a1.(i);
  }

let events t =
  let t = logical t in
  List.init t.len (event_at t)

let categories t =
  let t = logical t in
  let seen = Hashtbl.create 8 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen cat_table.(code_name t.code.(i)) ()
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let validate t =
  let t = logical t in
  let last_ts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let stack track =
    match Hashtbl.find_opt stacks track with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks track s;
        s
  in
  let err = ref None in
  let fail i msg =
    if !err = None then err := Some (Printf.sprintf "event %d: %s" i msg)
  in
  for i = 0 to t.len - 1 do
    let c = t.code.(i) and track = t.track.(i) and ts = t.ts.(i) in
    (match Hashtbl.find_opt last_ts track with
    | Some prev when ts < prev ->
        fail i
          (Printf.sprintf "timestamp went backwards on track %d (%d < %d)"
             track ts prev)
    | _ -> ());
    Hashtbl.replace last_ts track ts;
    let name = code_name c in
    match code_phase c with
    | p when p = ph_begin ->
        let s = stack track in
        (* No span in the vocabulary legitimately nests inside itself on
           one track (a tenant has one in-flight request, a sandbox one
           activation), so a same-name begin inside an open span of that
           name means two streams were merged onto one track id — the
           collision sharded runs hit before track namespacing. *)
        if List.mem name !s then
          fail i
            (Printf.sprintf
               "duplicate overlapping span %S on track %d (colliding streams?)"
               name_table.(name) track);
        s := name :: !s
    | p when p = ph_end -> (
        let s = stack track in
        match !s with
        | top :: rest when top = name -> s := rest
        | top :: _ ->
            fail i
              (Printf.sprintf "span end %S does not match open span %S"
                 name_table.(name) name_table.(top))
        | [] ->
            fail i
              (Printf.sprintf "span end %S with no open span on track %d"
                 name_table.(name) track))
    | _ -> ()
  done;
  if !err = None && t.dropped = 0 then
    Hashtbl.iter
      (fun track s ->
        match !s with
        | name :: _ ->
            if !err = None then
              err :=
                Some
                  (Printf.sprintf "unclosed span %S on track %d"
                     name_table.(name) track)
        | [] -> ())
      stacks;
  match !err with None -> Ok () | Some e -> Error e

let fingerprint t =
  (* FNV-1a over the raw columns (plus length and drop count): a cheap
     order-sensitive digest for determinism and bit-identity tests.
     Wrapped tail rings hash in logical order, so the digest only
     depends on the retained stream, not on where the wrap landed. *)
  let t = logical t in
  let h = ref 0xCBF29CE484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001B3L in
  mix t.len;
  mix t.dropped;
  for i = 0 to t.len - 1 do
    mix t.ts.(i);
    mix t.code.(i);
    mix t.track.(i);
    mix t.a0.(i);
    mix t.a1.(i)
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Shard merge                                                         *)

let merge_shards rings =
  if rings = [] then invalid_arg "Trace.merge_shards: no rings";
  let rings = Array.of_list (List.map logical rings) in
  let k = Array.length rings in
  (* Stride for sandbox-track namespacing: one past the widest sandbox
     track id seen in any shard, so shard [s]'s track [v] maps to
     [s * stride + v] and ranges never overlap. Machine tracks ([-1])
     map to [-(s + 1)]. A single ring keeps its tracks untouched, which
     makes the 1-shard merge bit-identical to the input. *)
  let stride =
    Array.fold_left
      (fun acc r ->
        let m = ref acc in
        for i = 0 to r.len - 1 do
          if r.track.(i) >= !m then m := r.track.(i) + 1
        done;
        !m)
      1 rings
  in
  let total = Array.fold_left (fun acc r -> acc + r.len) 0 rings in
  let out = make_ring ~wrap:false (max 1 total) in
  out.shard_stride <- (if k > 1 then stride else 0);
  out.dropped <- Array.fold_left (fun acc r -> acc + r.dropped) 0 rings;
  let idx = Array.make k 0 in
  for _ = 1 to total do
    (* Pick the shard whose next event has the smallest simulated
       timestamp; scanning high-to-low with [<=] breaks ties toward the
       lowest shard id, keeping the merge deterministic. *)
    let best = ref (-1) in
    for s = k - 1 downto 0 do
      if
        idx.(s) < rings.(s).len
        && (!best < 0 || rings.(s).ts.(idx.(s)) <= rings.(!best).ts.(idx.(!best)))
      then best := s
    done;
    let s = !best in
    let r = rings.(s) in
    let i = idx.(s) in
    let track = r.track.(i) in
    let track' =
      if k = 1 then track
      else if track < 0 then track - s
      else (s * stride) + track
    in
    let j = out.len in
    out.ts.(j) <- r.ts.(i);
    out.code.(j) <- r.code.(i);
    out.track.(j) <- track';
    out.a0.(j) <- r.a0.(i);
    out.a1.(j) <- r.a1.(i);
    out.len <- j + 1;
    idx.(s) <- i + 1
  done;
  out

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)

type summary = {
  s_count : int;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_total : float;
}

let summaries t =
  let t = logical t in
  let buckets : (string, Sfi_util.Hist.t) Hashtbl.t = Hashtbl.create 8 in
  let add key v =
    match Hashtbl.find_opt buckets key with
    | Some h -> Sfi_util.Hist.record h v
    | None ->
        let h = Sfi_util.Hist.create () in
        Sfi_util.Hist.record h v;
        Hashtbl.add buckets key h
  in
  (* Open-span begin timestamps, per (track, name id). *)
  let open_spans : (int * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let c = t.code.(i) in
    let name = code_name c in
    let key = (t.track.(i), name) in
    match code_phase c with
    | p when p = ph_begin -> (
        match Hashtbl.find_opt open_spans key with
        | Some s -> s := t.ts.(i) :: !s
        | None -> Hashtbl.add open_spans key (ref [ t.ts.(i) ]))
    | p when p = ph_end -> (
        match Hashtbl.find_opt open_spans key with
        | Some ({ contents = start :: rest } as s) ->
            s := rest;
            add name_table.(name) (float_of_int (t.ts.(i) - start))
        | _ -> ())
    | _ ->
        (* Hostcall instants carry their cost in a0. *)
        if name >= 1 && name <= 3 then
          add name_table.(name) (float_of_int t.a0.(i))
  done;
  Hashtbl.fold
    (fun key h acc ->
      let s =
        {
          s_count = Sfi_util.Hist.count h;
          s_p50 = Sfi_util.Hist.percentile h 50.;
          s_p95 = Sfi_util.Hist.percentile h 95.;
          s_p99 = Sfi_util.Hist.percentile h 99.;
          s_total = Sfi_util.Hist.total h;
        }
      in
      (key, s) :: acc)
    buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

let tid_of_track track = track + 1

let args_fields name a0 a1 =
  match name with
  | 1 | 2 | 3 -> [ ("cycles", a0) ]
  | 6 -> [ ("pages", a0) ]
  | 8 -> [ ("addr", a0); ("write", a1) ]
  | 9 -> [ ("value", a0) ]
  | 10 | 11 -> [ ("page", a0) ]
  | 12 -> [ ("executed", a0) ]
  | 13 -> [ ("ok", a1) ]
  | 14 -> [ ("sojourn", a0) ]
  | 15 -> [ ("depth", a0) ]
  | 16 -> [ ("sojourn", a0); ("reason", a1) ]
  | 17 -> [ ("backoff", a0) ]
  | 20 -> [ ("level", a0) ]
  | 21 | 22 | 23 -> [ ("block", a0); ("len", a1) ]
  | 24 | 25 -> [ ("burn_milli", a0); ("window", a1) ]
  | _ -> []

let to_chrome_json ?(process_name = "sfi-sim") t =
  let t = logical t in
  let b = Buffer.create (4096 + (t.len * 96)) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  (* Metadata: process and per-track thread names. *)
  sep ();
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":%S}}"
       process_name);
  let tracks = Hashtbl.create 8 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace tracks t.track.(i) ()
  done;
  Hashtbl.fold (fun k () acc -> k :: acc) tracks []
  |> List.sort compare
  |> List.iter (fun track ->
         let label =
           if track < 0 then
             if t.shard_stride > 0 || track < -1 then
               Printf.sprintf "machine (shard %d)" (-track - 1)
             else "machine"
           else if t.shard_stride > 0 then
             Printf.sprintf "shard %d sandbox %d" (track / t.shard_stride)
               (track mod t.shard_stride)
           else Printf.sprintf "sandbox %d" track
         in
         sep ();
         Buffer.add_string b
           (Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
              (tid_of_track track) label));
  for i = 0 to t.len - 1 do
    let c = t.code.(i) in
    let name = code_name c in
    let ph = code_phase c in
    sep ();
    Buffer.add_string b
      (Printf.sprintf "{\"name\":%S,\"cat\":%S,\"ph\":\"%c\"" name_table.(name)
         cat_table.(name) (phase_char ph));
    if ph = ph_instant then Buffer.add_string b ",\"s\":\"t\"";
    (* trace_event timestamps are microseconds; ours are nanoseconds. *)
    Buffer.add_string b
      (Printf.sprintf ",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
         (float_of_int t.ts.(i) /. 1000.)
         (tid_of_track t.track.(i)));
    (match args_fields name t.a0.(i) t.a1.(i) with
    | [] -> ()
    | fields ->
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf "%S:%d" k v))
          fields;
        Buffer.add_char b '}');
    Buffer.add_char b '}'
  done;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser + schema check for the exported trace           *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* Escaped code points never occur in our own output; keep
                 the validator total by substituting a placeholder. *)
              if !pos + 4 >= n then fail "truncated \\u escape";
              pos := !pos + 4;
              Buffer.add_char b '?'
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> J_str (parse_string ())
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          J_obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                J_obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          J_arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                J_arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then (
          pos := !pos + 4;
          J_bool true)
        else fail "bad literal"
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then (
          pos := !pos + 5;
          J_bool false)
        else fail "bad literal"
    | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then (
          pos := !pos + 4;
          J_null)
        else fail "bad literal"
    | '0' .. '9' | '-' -> J_num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

type json_report = { json_events : int; json_cats : string list }

let known_cats =
  [
    "transition";
    "lifecycle";
    "fault";
    "pkru";
    "tlb";
    "fuel";
    "request";
    "admission";
    "breaker";
    "tier";
    "slo";
  ]

let validate_chrome_json text =
  match parse_json text with
  | exception Bad_json msg -> Error ("malformed JSON: " ^ msg)
  | J_obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (J_arr evs) -> (
          let cats = Hashtbl.create 8 in
          let count = ref 0 in
          let check i = function
            | J_obj f -> (
                let str k = List.assoc_opt k f in
                let num k =
                  match List.assoc_opt k f with
                  | Some (J_num _) -> true
                  | _ -> false
                in
                match str "ph" with
                | Some (J_str "M") -> Ok ()
                | Some (J_str (("B" | "E" | "i") as _ph)) -> (
                    incr count;
                    if not (num "ts") then
                      Error (Printf.sprintf "event %d: missing numeric ts" i)
                    else if not (num "pid" && num "tid") then
                      Error (Printf.sprintf "event %d: missing pid/tid" i)
                    else
                      match (str "name", str "cat") with
                      | Some (J_str _), Some (J_str c)
                        when List.mem c known_cats ->
                          Hashtbl.replace cats c ();
                          Ok ()
                      | Some (J_str _), Some (J_str c) ->
                          Error
                            (Printf.sprintf "event %d: unknown category %S" i c)
                      | _ ->
                          Error
                            (Printf.sprintf "event %d: missing name or cat" i))
                | Some (J_str ph) ->
                    Error (Printf.sprintf "event %d: unknown phase %S" i ph)
                | _ -> Error (Printf.sprintf "event %d: missing phase" i))
            | _ -> Error (Printf.sprintf "event %d: not an object" i)
          in
          let rec go i = function
            | [] -> Ok ()
            | e :: rest -> (
                match check i e with Ok () -> go (i + 1) rest | err -> err)
          in
          match go 0 evs with
          | Ok () ->
              Ok
                {
                  json_events = !count;
                  json_cats =
                    List.sort compare
                      (Hashtbl.fold (fun k () acc -> k :: acc) cats []);
                }
          | Error _ as e -> e)
      | _ -> Error "missing traceEvents array")
  | _ -> Error "top level is not an object"

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

let prom_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* Exposition-format escaping of HELP text: backslash and newline. *)
let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prometheus metrics =
  let b = Buffer.create 512 in
  (* One HELP/TYPE header per metric name, emitted at its first sample. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, help, v) ->
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (prom_escape help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name)
      end;
      Buffer.add_string b (Printf.sprintf "%s %s\n" name (prom_value v)))
    metrics;
  Buffer.contents b
