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
  tags : int array; (* tags.(set * ways + way) = page number, -1 = invalid *)
  payloads : int array;
  stamps : int array; (* LRU stamps; larger = more recent *)
  mutable clock : int;
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
  if !way < t.config.ways then begin
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

let fill_slot t ~page ~payload =
  let set = page mod t.sets in
  let base = set * t.config.ways in
  let victim = ref 0 in
  for way = 1 to t.config.ways - 1 do
    if t.stamps.(base + way) < t.stamps.(base + !victim) then victim := way
  done;
  (* A fill is a recency event of its own: without the increment a
     just-filled line reuses the last lookup/touch clock, ties with the
     most-recently-touched line, and can be evicted by the very next fill
     in the set. *)
  t.clock <- t.clock + 1;
  if Sfi_trace.Trace.enabled t.trace then begin
    let displaced = t.tags.(base + !victim) in
    if displaced >= 0 then Sfi_trace.Trace.tlb_evict t.trace ~page:displaced;
    Sfi_trace.Trace.tlb_fill t.trace ~page
  end;
  t.tags.(base + !victim) <- page;
  t.payloads.(base + !victim) <- payload;
  t.stamps.(base + !victim) <- t.clock;
  base + !victim

let fill t ~page ~payload = ignore (fill_slot t ~page ~payload)

let holds t ~slot ~page = t.tags.(slot) = page

let touch t ~slot =
  t.clock <- t.clock + 1;
  t.hits <- t.hits + 1;
  t.stamps.(slot) <- t.clock

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let misses t = t.misses
let hits t = t.hits

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
