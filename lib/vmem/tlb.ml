type config = {
  entries : int;
  ways : int;
  page_walk_levels : int;
  walk_cycles_per_level : int;
}

let default_config = { entries = 64; ways = 4; page_walk_levels = 4; walk_cycles_per_level = 5 }

type t = {
  config : config;
  sets : int;
  tags : int array; (* tags.(set * ways + way) = page number, -1 = never filled *)
  payloads : int array;
  stamps : int array; (* LRU stamps; larger = more recent *)
  mutable clock : int;
  mutable floor : int; (* a slot is valid iff its stamp is above this *)
  mutable hits : int;
  mutable misses : int;
  mutable trace : Sfi_trace.Trace.t;
}

let create config =
  if config.entries <= 0 || config.ways <= 0 || config.entries mod config.ways <> 0 then
    invalid_arg "Tlb.create: entries must be a positive multiple of ways";
  let sets = config.entries / config.ways in
  {
    config;
    sets;
    tags = Array.make config.entries (-1);
    payloads = Array.make config.entries 0;
    stamps = Array.make config.entries 0;
    clock = 0;
    floor = 0;
    hits = 0;
    misses = 0;
    trace = Sfi_trace.Trace.null;
  }

let set_trace t sink = t.trace <- sink

let walk_cost t = t.config.page_walk_levels * t.config.walk_cycles_per_level

let lookup_slot t ~page =
  let set = page mod t.sets in
  let base = set * t.config.ways in
  t.clock <- t.clock + 1;
  let way = ref 0 in
  while !way < t.config.ways && t.tags.(base + !way) <> page do
    incr way
  done;
  (* A flushed slot keeps its tag, but never sits ahead of a live slot
     with the same tag: while a set has a flushed way, a fill takes the
     lowest one. *)
  if !way < t.config.ways && t.stamps.(base + !way) > t.floor then begin
    t.hits <- t.hits + 1;
    t.stamps.(base + !way) <- t.clock;
    base + !way
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

let payload t ~slot = t.payloads.(slot)

let lookup t ~page =
  let slot = lookup_slot t ~page in
  if slot >= 0 then Some t.payloads.(slot) else None

(* Slots flushed since their last fill rank as stamp 0, as if the flush
   had zeroed them. *)
let[@inline] live_stamp t slot =
  let s = t.stamps.(slot) in
  if s > t.floor then s else 0

let fill_slot t ~page ~payload =
  let set = page mod t.sets in
  let base = set * t.config.ways in
  let victim = ref base and oldest = ref (live_stamp t base) in
  for slot = base + 1 to base + t.config.ways - 1 do
    let s = live_stamp t slot in
    if s < !oldest then begin
      victim := slot;
      oldest := s
    end
  done;
  (* A fill is a recency event of its own: without the increment a
     just-filled line reuses the last lookup/touch clock, ties with the
     most-recently-touched line, and can be evicted by the very next fill
     in the set. *)
  t.clock <- t.clock + 1;
  if Sfi_trace.Trace.enabled t.trace then begin
    if !oldest > 0 then Sfi_trace.Trace.tlb_evict t.trace ~page:t.tags.(!victim);
    Sfi_trace.Trace.tlb_fill t.trace ~page
  end;
  t.tags.(!victim) <- page;
  t.payloads.(!victim) <- payload;
  t.stamps.(!victim) <- t.clock;
  !victim

let fill t ~page ~payload = ignore (fill_slot t ~page ~payload)

let holds t ~slot ~page = t.tags.(slot) = page

let touch t ~slot =
  t.clock <- t.clock + 1;
  t.hits <- t.hits + 1;
  t.stamps.(slot) <- t.clock

(* Every stamp given out so far is at most [clock], so raising the floor
   to it invalidates every slot at once; later lookups, fills and touches
   stamp above it. *)
let flush t = t.floor <- t.clock

let misses t = t.misses
let hits t = t.hits

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
