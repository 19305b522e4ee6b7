(* The instance lifecycle: slot claim/recycle, copy-on-write
   instantiation, memory growth, teardown.

   Instantiation is Wasmtime-style CoW: the per-module image (heap data
   segments + vmctx template, baked once per engine by {!bake_heap_image} /
   {!bake_vmctx_image}) backs every slot via {!Sfi_vmem.Space.set_backing}.
   A cold slot maps its host block and registers the backing; a warm slot
   does neither — the recycle at release/kill already dropped the dead
   tenant's private pages, so the slot reads as a pristine image again.
   Both paths then perform only O(1) per-slot vmctx writes, making
   instantiate/recycle O(dirty pages) instead of O(heap size). *)

open Rt_types
module Mpk = Sfi_vmem.Mpk
module Prot = Sfi_vmem.Prot
module Trace = Sfi_trace.Trace

let slot_capacity_pages e =
  match e.allocator with
  | Simple { reservation } -> reservation / wasm_page
  | Pool layout -> layout.Pool.params.Pool.max_memory_bytes / wasm_page

let slot_heap_base e slot =
  match e.allocator with
  | Simple { reservation } ->
      (* Keep a 4 GiB guard window after each reservation. *)
      slab_base + (slot * (reservation + (4 * Sfi_util.Units.gib)))
  | Pool layout -> slab_base + Pool.slot_base layout slot

let slot_color e slot =
  match e.allocator with Simple _ -> 0 | Pool layout -> Pool.color_of_slot layout slot

(* [slot_reserve] slots are withheld from allocation (degradation
   ladder): refuse a claim once live instances reach the shrunken pool
   size, regardless of which free list the slot would come from. *)
let claim_slot e =
  if e.live_slots >= e.max_slots - e.slot_reserve then None
  else
    match e.free_slots with
    | s :: rest ->
        e.free_slots <- rest;
        e.live_slots <- e.live_slots + 1;
        Some s
    | [] ->
        if e.next_slot >= e.max_slots then None
        else begin
          let s = e.next_slot in
          e.next_slot <- s + 1;
          e.live_slots <- e.live_slots + 1;
          Some s
        end

let free_slot e slot =
  e.free_slots <- slot :: e.free_slots;
  e.live_slots <- e.live_slots - 1

(* --- vmctx accessors --- *)

let write_vmctx64 e inst off v = Space.write64 e.space (inst.vmctx + off) v

let set_memory_bound e inst =
  write_vmctx64 e inst Codegen.vmctx_memory_bytes (Int64.of_int (inst.pages * wasm_page))

let sandbox_pkru_image inst =
  if inst.inst_color = 0 then Mpk.allow_all
  else Mpk.allow_default_and inst.inst_color

(* --- the baked module image --- *)

let bake_heap_image (m : W.module_) =
  Space.image_of_data (List.map (fun { W.doffset; dbytes } -> (doffset, dbytes)) m.W.data)

(* Each field is one 8-byte segment, copied once into the image's page.
   The fields cover page 0 and every page the globals reach, so the image
   has the same pages as a zero-filled, page-rounded vmctx template. *)
let bake_vmctx_image (m : W.module_) ~min_pages =
  let word off v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    (off, Bytes.unsafe_to_string b)
  in
  let global i (g : W.global) =
    word
      (Codegen.vmctx_globals + (8 * i))
      (match g.W.ginit with
      | W.V_i32 v -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
      | W.V_i64 v -> v)
  in
  Space.image_of_data
    (word Codegen.vmctx_memory_bytes (Int64.of_int (min_pages * wasm_page))
    :: word Codegen.vmctx_pkru_host (Int64.of_int Mpk.allow_all)
    :: List.mapi global (Array.to_list m.W.globals))

(* --- memory mapping and growth --- *)

let map_heap_range e inst ~from_page ~to_page =
  if to_page > from_page then begin
    let addr = inst.heap + (from_page * wasm_page) in
    let len = (to_page - from_page) * wasm_page in
    ok_exn "map heap" (Space.map e.space ~addr ~len ~prot:Prot.rw);
    if inst.inst_color <> 0 then
      ok_exn "color heap" (Space.pkey_protect e.space ~addr ~len ~prot:Prot.rw ~key:inst.inst_color)
  end

let set_accessible e inst ~pages =
  let mapped = try Hashtbl.find e.slot_mapped_pages inst.id with Not_found -> 0 in
  if pages > mapped then begin
    (* Make the already-mapped prefix accessible again, then extend. *)
    if mapped > 0 then
      ok_exn "reprotect heap"
        (Space.pkey_protect e.space ~addr:inst.heap ~len:(mapped * wasm_page) ~prot:Prot.rw
           ~key:inst.inst_color);
    map_heap_range e inst ~from_page:mapped ~to_page:pages;
    Hashtbl.replace e.slot_mapped_pages inst.id pages
  end
  else begin
    if pages > 0 then
      ok_exn "reprotect heap"
        (Space.pkey_protect e.space ~addr:inst.heap ~len:(pages * wasm_page) ~prot:Prot.rw
           ~key:inst.inst_color);
    if mapped > pages then
      ok_exn "fence heap"
        (Space.pkey_protect e.space
           ~addr:(inst.heap + (pages * wasm_page))
           ~len:((mapped - pages) * wasm_page)
           ~prot:Prot.none ~key:inst.inst_color)
  end

let grow_memory e inst delta =
  if delta < 0 then -1
  else if delta = 0 then inst.pages
  else begin
    let new_pages = inst.pages + delta in
    if new_pages > inst.max_pages || new_pages > slot_capacity_pages e then -1
    else begin
      let old = inst.pages in
      set_accessible e inst ~pages:new_pages;
      inst.pages <- new_pages;
      set_memory_bound e inst;
      old
    end
  end

(* --- instantiate / recycle / teardown --- *)

let instantiate_slot e slot =
  let host_block = host_area_base + (slot * host_block_stride) in
  let inst =
    {
      engine = e;
      id = slot;
      vmctx = host_block;
      heap = slot_heap_base e slot;
      stack_top = host_block + host_stack_offset + host_stack_bytes;
      inst_color = slot_color e slot;
      pages = e.min_pages;
      max_pages = min e.decl_max_pages (slot_capacity_pages e);
      live = true;
    }
  in
  (if not (Hashtbl.mem e.slot_mapped_pages slot) then begin
     (* Cold slot: map the host block (vmctx page + host stack, default
        pkey 0) and attach the module image copy-on-write behind both the
        host block and the heap. Nothing is copied here — pages privatize
        lazily on first write. *)
     ok_exn "map vmctx" (Space.map e.space ~addr:host_block ~len:4096 ~prot:Prot.rw);
     ok_exn "map stack"
       (Space.map e.space ~addr:(host_block + host_stack_offset) ~len:host_stack_bytes
          ~prot:Prot.rw);
     ok_exn "back host block"
       (Space.set_backing e.space ~addr:host_block ~len:host_block_len e.vmctx_image);
     let cap = slot_capacity_pages e in
     if cap > 0 then
       ok_exn "back heap"
         (Space.set_backing e.space ~addr:inst.heap ~len:(cap * wasm_page) e.heap_image);
     Hashtbl.replace e.slot_mapped_pages slot 0;
     bump e (fun c n -> c.m_instantiations_cold <- c.m_instantiations_cold + n) 1;
     Trace.instantiate e.trace ~sandbox:slot ~warm:false
   end
   else begin
     (* Warm slot: the recycle at release/kill time already reverted every
        page the dead tenant dirtied back to the image. *)
     bump e (fun c n -> c.m_instantiations_warm <- c.m_instantiations_warm + n) 1;
     Trace.instantiate e.trace ~sandbox:slot ~warm:true
   end);
  set_accessible e inst ~pages:e.min_pages;
  (* Per-slot vmctx fields — the only writes an instantiation performs.
     Memory bound, host PKRU image and global initial values come from the
     baked template. *)
  write_vmctx64 e inst Codegen.vmctx_heap_base (Int64.of_int inst.heap);
  write_vmctx64 e inst Codegen.vmctx_pkru_sandbox (Int64.of_int (sandbox_pkru_image inst));
  (* Stack exhaustion limit: leave a page of headroom above the guard. *)
  write_vmctx64 e inst Codegen.vmctx_stack_limit
    (Int64.of_int (host_block + host_stack_offset + 4096));
  inst

(* Zero the dead tenant's footprint: drop only the pages it actually
   dirtied — heap AND host block (vmctx + host stack), which the
   pre-refactor runtime never re-zeroed between tenants. *)
let recycle_slot e inst =
  let dropped what r =
    match r with Ok n -> n | Error msg -> failwith ("recycle " ^ what ^ ": " ^ msg)
  in
  let host =
    dropped "host block" (Space.recycle e.space ~addr:inst.vmctx ~len:host_block_len)
  in
  let cap = slot_capacity_pages e in
  let heap =
    if cap = 0 then 0
    else dropped "heap" (Space.recycle e.space ~addr:inst.heap ~len:(cap * wasm_page))
  in
  bump e
    (fun c n -> c.m_pages_zeroed_on_recycle <- c.m_pages_zeroed_on_recycle + n)
    (host + heap);
  Trace.recycle e.trace ~sandbox:inst.id ~pages:(host + heap)

let release inst =
  let e = inst.engine in
  if inst.live then begin
    inst.live <- false;
    recycle_slot e inst;
    (match e.current with Some i when i == inst -> e.current <- None | _ -> ());
    free_slot e inst.id
  end

let kill inst =
  let e = inst.engine in
  if inst.live then begin
    inst.live <- false;
    (* Drop the tenant's dirty pages first, then fence everything the slot
       ever mapped to PROT_NONE so a stale activation faults instead of
       reading the next tenant's memory. A fresh [instantiate] of the slot
       re-opens it. *)
    recycle_slot e inst;
    set_accessible e inst ~pages:0;
    (match e.current with Some i when i == inst -> e.current <- None | _ -> ());
    free_slot e inst.id;
    Trace.kill e.trace ~sandbox:inst.id
  end

let dirty_heap_pages inst = Space.dirty_pages inst.engine.space ~addr:inst.heap
