module Imap = Map.Make (Int)

let page_size = 4096
let page_shift = 12
let page_of_addr addr = addr lsr page_shift

type vma = { start : int; len : int; prot : Prot.t; pkey : int }

(* A frozen page store shared by every region backed by it: page index
   relative to the region start -> pristine contents. Pages absent from the
   image read as zeros, like the untouched parts of an anonymous mapping. *)
type image = { img_pages : (int, Bytes.t) Hashtbl.t }

(* A copy-on-write region: reads fall through to the (shared, immutable)
   image; the first write to a page copies it into the region's own frame
   store and records its offset in [r_dirty], so recycling the region is
   O(dirtied pages) — drop the private copies and reads revert to the
   image, exactly what madvise(MADV_DONTNEED) does to a MAP_PRIVATE file
   mapping.

   The frame store is indexed by page offset from [r_first]: chunk
   [off lsr chunk_shift], slot [off land (chunk_pages - 1)]. The chunk
   index grows to the highest chunk written, never to [r_pages] (a default
   reservation is a million pages); a chunk nothing wrote is [[||]], a slot
   holding no frame is [no_frame]. Every frame in the store is dirty. *)
type region = {
  r_first : int; (* page number of the region's start *)
  r_pages : int;
  r_image : image;
  mutable r_chunks : Bytes.t array array;
  mutable r_dirty : int list; (* offsets of the frames in the store *)
  mutable r_ndirty : int;
  mutable r_shadow : int;
      (* pages of the space's own store inside the region: privatized
         before the region was registered, they shadow the image *)
}

let chunk_shift = 6
let chunk_pages = 1 lsl chunk_shift
let no_frame = Bytes.create 0

(* See [epochs] in the interface. *)
type epochs = { mutable generation : int; mutable data_epoch : int }

(* The translation memos: direct-mapped, indexed by a multiplicative
   hash of the page. Slot [n] holds a page in [keys.(2n)], the [layout]
   it was filled at in [keys.(2n+1)] and the answer in [vals.(n)];
   [memo_index] gives [2n]. A slot is valid only while its stamp is the
   space's [layout]. The hash spreads what a low-bit index would pile up:
   every pool slot's stack and heap pages share their low bits. *)
let memo_bits = 10
let memo_slots = 1 lsl memo_bits

(* The memos are built at the [memo_after]th tree walk, not with the space:
   a cold start walks about twenty times and never pays for them. *)
let memo_after = 256

let[@inline] memo_index p = ((p * 0x4f1bbcdcbfa53e0b) lsr (Sys.int_size - memo_bits)) lsl 1

type t = {
  mutable vmas : vma Imap.t; (* keyed by start address *)
  mutable vma_count : int; (* [Imap.cardinal vmas], without the tree walk *)
  pages : (int, Bytes.t) Hashtbl.t;
      (* pages outside every region, and the shadows counted in [r_shadow] *)
  mutable region_resident : int; (* frames held by region stores *)
  mutable frames : Bytes.t list;
      (* private pages dropped since materialization, reused by the next
         fault: no more frames than the peak resident count *)
  mutable regions : region Imap.t; (* keyed by start address *)
  mutable last_region : region; (* what [region_of_page] returned last *)
  mutable layout : int;
      (* bumped by every write of [vmas] or [regions] ([set_vmas],
         [set_regions]): the stamp of the memos' valid slots. Never by a
         reprotect that changes nothing, unlike [generation]. *)
  mutable walks : int; (* tree walks while the memos are not built *)
  (* [vma_at] and [region_of_page] (past [last_region]) by page; empty
     arrays until built *)
  mutable vma_keys : int array;
  mutable vma_vals : vma array;
  mutable region_keys : int array;
  mutable region_vals : region array;
  max_map_count : int;
  epochs : epochs;
  (* [at_or_below s] is [s <= probe]: the predicate every VMA and region
     lookup passes to [Imap.find_last], allocated once with the space so
     the TLB-miss and page-cache-fill paths build no closure. *)
  mutable probe : int;
  at_or_below : int -> bool;
}

(* What [region_of_page] returns for a page no region covers; never
   written. *)
let no_region =
  {
    r_first = 0;
    r_pages = 0;
    r_image = { img_pages = Hashtbl.create 1 };
    r_chunks = [||];
    r_dirty = [];
    r_ndirty = 0;
    r_shadow = 0;
  }

let create ?(max_map_count = 65530) () =
  let rec t =
    {
      vmas = Imap.empty;
      vma_count = 0;
      pages = Hashtbl.create 16;
      region_resident = 0;
      frames = [];
      regions = Imap.empty;
      last_region = no_region;
      layout = 0;
      walks = 0;
      vma_keys = [||];
      vma_vals = [||];
      region_keys = [||];
      region_vals = [||];
      max_map_count;
      epochs = { generation = 0; data_epoch = 0 };
      probe = 0;
      at_or_below = (fun s -> s <= t.probe);
    }
  in
  t

let epochs t = t.epochs
let generation t = t.epochs.generation
let data_epoch t = t.epochs.data_epoch
let bump_generation t = t.epochs.generation <- t.epochs.generation + 1
let bump_data_epoch t = t.epochs.data_epoch <- t.epochs.data_epoch + 1

let vma_count t = t.vma_count
let max_map_count t = t.max_map_count

let vma_end v = v.start + v.len

let unmapped = { start = 0; len = 0; prot = Prot.none; pkey = 0 }

let set_vmas t vmas =
  t.vmas <- vmas;
  t.layout <- t.layout + 1

let set_regions t regions =
  t.regions <- regions;
  t.layout <- t.layout + 1

(* Count a tree walk; the [memo_after]th builds both memos, every slot
   stamped below any [layout]. *)
let count_walk t =
  t.walks <- t.walks + 1;
  if t.walks >= memo_after then begin
    t.vma_keys <- Array.make (2 * memo_slots) (-1);
    t.vma_vals <- Array.make memo_slots unmapped;
    t.region_keys <- Array.make (2 * memo_slots) (-1);
    t.region_vals <- Array.make memo_slots no_region
  end

let memo_live t = Array.length t.vma_keys > 0

(* Does the memo slot [i] of [keys] hold page [p] at the current layout?
   On a miss the caller walks and calls [memo_fill]. *)
let[@inline] memo_hit t keys i p =
  Array.unsafe_get keys i = p && Array.unsafe_get keys (i + 1) = t.layout

let[@inline] memo_fill t keys i p =
  Array.unsafe_set keys i p;
  Array.unsafe_set keys (i + 1) t.layout

(* VMAs are page-aligned, so the VMA of page [p] covers every address in
   it. *)
let walk_vmas t p =
  let addr = p lsl page_shift in
  t.probe <- addr;
  match Imap.find_last t.at_or_below t.vmas with
  | _, v when addr < vma_end v -> v
  | _ -> unmapped
  | exception Not_found -> unmapped

let vma_at t addr =
  let p = addr lsr page_shift in
  let keys = t.vma_keys in
  if Array.length keys = 0 then begin
    count_walk t;
    walk_vmas t p
  end
  else
    let i = memo_index p in
    if memo_hit t keys i p then Array.unsafe_get t.vma_vals (i lsr 1)
    else begin
      let v = walk_vmas t p in
      memo_fill t keys i p;
      Array.unsafe_set t.vma_vals (i lsr 1) v;
      v
    end

let find_vma t addr =
  let v = vma_at t addr in
  if v == unmapped then None else Some v

let page_info t ~addr =
  match find_vma t addr with Some v -> Some (v.prot, v.pkey) | None -> None

let aligned addr len =
  addr >= 0 && len > 0 && addr mod page_size = 0 && len mod page_size = 0

let region_len r = r.r_pages lsl page_shift

let walk_regions t p =
  t.probe <- p lsl page_shift;
  match Imap.find_last t.at_or_below t.regions with
  | _, r when p < r.r_first + r.r_pages -> r
  | _ -> no_region
  | exception Not_found -> no_region

(* The region covering page [p], or [no_region]. A warm cycle touches one
   region after another, so the last answer is tried first. *)
let region_of_page t p =
  let r = t.last_region in
  let off = p - r.r_first in
  if off >= 0 && off < r.r_pages then r
  else begin
    let keys = t.region_keys in
    let r =
      if Array.length keys = 0 then begin
        count_walk t;
        walk_regions t p
      end
      else
        let i = memo_index p in
        if memo_hit t keys i p then Array.unsafe_get t.region_vals (i lsr 1)
        else begin
          let r = walk_regions t p in
          memo_fill t keys i p;
          Array.unsafe_set t.region_vals (i lsr 1) r;
          r
        end
    in
    if r != no_region then t.last_region <- r;
    r
  end

(* What reads of a page nobody wrote return; never written. *)
let zero_page = Bytes.make page_size '\000'

(* The image page at offset [off] of [r], or [zero_page]. *)
let image_page r off =
  match Hashtbl.find r.r_image.img_pages off with b -> b | exception Not_found -> zero_page

(* The frame at offset [off] of [r]'s store, or [no_frame]. *)
let frame r off =
  let c = off lsr chunk_shift in
  if c >= Array.length r.r_chunks then no_frame
  else
    let chunk = Array.unsafe_get r.r_chunks c in
    if Array.length chunk = 0 then no_frame else Array.unsafe_get chunk (off land (chunk_pages - 1))

(* Store [b] (a frame, or [no_frame] to clear) at offset [off] of [r],
   growing the chunk index to reach it. *)
let set_frame r off b =
  let c = off lsr chunk_shift in
  let n = Array.length r.r_chunks in
  if c >= n then begin
    let max_chunks = (r.r_pages + chunk_pages - 1) lsr chunk_shift in
    let chunks = Array.make (min max_chunks (max (c + 1) (2 * n))) [||] in
    Array.blit r.r_chunks 0 chunks 0 n;
    r.r_chunks <- chunks
  end;
  let chunk = r.r_chunks.(c) in
  let chunk =
    if Array.length chunk > 0 then chunk
    else begin
      let chunk = Array.make chunk_pages no_frame in
      r.r_chunks.(c) <- chunk;
      chunk
    end
  in
  chunk.(off land (chunk_pages - 1)) <- b

(* Take page [p]'s private frame out of the space's store and keep it for
   reuse. Every caller bumps [data_epoch], which is what makes reuse safe:
   a [Bytes.t] cached from an older epoch is never read again. *)
let release_frame t p =
  match Hashtbl.find_opt t.pages p with
  | Some b ->
      Hashtbl.remove t.pages p;
      t.frames <- b :: t.frames
  | None -> ()

(* The same for the frame at offset [off] of [r]'s store, which is [b]. *)
let release_region_frame t r off b =
  set_frame r off no_frame;
  t.frames <- b :: t.frames;
  r.r_ndirty <- r.r_ndirty - 1;
  t.region_resident <- t.region_resident - 1

(* Forget a page's private copy; if a COW region covers it, its dirty set
   forgets it too (the next write re-privatizes from the image). *)
let drop_page t p =
  let r = region_of_page t p in
  if r == no_region then release_frame t p
  else begin
    let off = p - r.r_first in
    let b = frame r off in
    if b != no_frame then begin
      release_region_frame t r off b;
      r.r_dirty <- List.filter (fun o -> o <> off) r.r_dirty
    end
    else if r.r_shadow > 0 && Hashtbl.mem t.pages p then begin
      release_frame t p;
      r.r_shadow <- r.r_shadow - 1
    end
  end

(* Does an existing VMA overlap [addr, addr+len)? Either the last one
   starting before [addr] extends into the range, or the first one
   starting at or after [addr] starts inside it. *)
let overlaps t addr len =
  (match Imap.find_last_opt (fun s -> s < addr) t.vmas with
  | Some (_, v) -> vma_end v > addr
  | None -> false)
  ||
  match Imap.find_first_opt (fun s -> s >= addr) t.vmas with
  | Some (s, _) -> s < addr + len
  | None -> false

let map t ~addr ~len ~prot =
  if not (aligned addr len) then Error "map: unaligned or empty range"
  else if overlaps t addr len then Error "map: overlaps existing mapping"
  else if vma_count t >= t.max_map_count then Error "map: vm.max_map_count exceeded"
  else begin
    set_vmas t (Imap.add addr { start = addr; len; prot; pkey = Mpk.default_key } t.vmas);
    t.vma_count <- t.vma_count + 1;
    bump_generation t;
    Ok ()
  end

(* Split the VMA containing [addr] (if any) so that a VMA boundary falls
   exactly at [addr]. *)
let split_at t addr =
  match find_vma t addr with
  | Some v when v.start < addr ->
      let left = { v with len = addr - v.start } in
      let right = { v with start = addr; len = vma_end v - addr } in
      set_vmas t (Imap.add addr right (Imap.add v.start left t.vmas));
      t.vma_count <- t.vma_count + 1
  | Some _ | None -> ()

(* Merge VMAs with identical attributes that became adjacent after an
   update, as the kernel does — keeps vma_count honest for the
   max_map_count experiments. Walks every VMA from the one ending at
   [addr] (so a merge across the left edge happens) to the one starting at
   [addr + len] (across the right edge), comparing each with its
   successor. *)
let merge_range t addr len =
  let finish = addr + len in
  let rec merge_from pos =
    match Imap.find_first_opt (fun s -> s >= pos) t.vmas with
    | Some (_, v) when v.start <= finish -> (
        match Imap.find_opt (vma_end v) t.vmas with
        | Some next when next.prot = v.prot && next.pkey = v.pkey ->
            set_vmas t
              (Imap.add v.start { v with len = v.len + next.len } (Imap.remove next.start t.vmas));
            t.vma_count <- t.vma_count - 1;
            merge_from v.start
        | Some _ | None -> merge_from (vma_end v))
    | Some _ | None -> ()
  in
  merge_from (match find_vma t (addr - 1) with Some v -> v.start | None -> addr)

let same_attrs a b = a.pkey = b.pkey && (a.prot == b.prot || a.prot = b.prot)

(* Would [update_range] leave the layout as it is? True when the range is
   exactly one VMA [v] that [f] keeps as it is and [merge_range] would
   merge nothing: not [v]'s left neighbour with [v], nor [v] with its right
   neighbour, nor that neighbour with its own successor (the merge walk
   reaches the VMA starting at the range's end). *)
let unchanged_by t addr len f =
  let v = vma_at t addr in
  v.start = addr && v.len = len
  && same_attrs (f v) v
  && t.vma_count <= t.max_map_count
  && (let l = vma_at t (addr - 1) in
      l == unmapped || not (same_attrs l v))
  &&
  match Imap.find_opt (addr + len) t.vmas with
  | None -> true
  | Some r -> (
      (not (same_attrs r v))
      && match Imap.find_opt (vma_end r) t.vmas with None -> true | Some n -> not (same_attrs n r))

(* Apply [f] to every VMA fully inside [addr, addr+len), after splitting at
   the edges. The range must be fully mapped. A call that would change
   nothing only bumps [generation]: the kernel shoots down TLBs on every
   successful mprotect, changed or not. *)
let update_range t addr len f =
  if not (aligned addr len) then Error "unaligned or empty range"
  else if unchanged_by t addr len f then begin
    bump_generation t;
    Ok ()
  end
  else begin
    let finish = addr + len in
    (* Verify full coverage before mutating. *)
    let rec covered pos =
      if pos >= finish then true
      else
        match find_vma t pos with
        | Some v -> covered (vma_end v)
        | None -> false
    in
    if not (covered addr) then Error "range not fully mapped"
    else begin
      let before = t.vmas and count_before = t.vma_count in
      split_at t addr;
      split_at t finish;
      (* After the splits the covered VMAs are a gapless chain from [addr]
         to [finish]: update just those. *)
      let rec update pos =
        if pos < finish then begin
          let v = Imap.find pos t.vmas in
          set_vmas t (Imap.add pos (f v) t.vmas);
          update (vma_end v)
        end
      in
      update addr;
      if vma_count t > t.max_map_count then begin
        (* Fail without a trace: the splits and new attributes never
           happened, so the unbumped [generation] stays truthful.
           [layout] moves, as on every write of the map. *)
        set_vmas t before;
        t.vma_count <- count_before;
        Error "vm.max_map_count exceeded"
      end
      else begin
        merge_range t addr len;
        bump_generation t;
        Ok ()
      end
    end
  end

let protect t ~addr ~len ~prot = update_range t addr len (fun v -> { v with prot })

let pkey_protect t ~addr ~len ~prot ~key =
  if key < 0 || key >= Mpk.num_keys then Error "pkey_protect: invalid key"
  else update_range t addr len (fun v -> { v with prot; pkey = key })

let unmap t ~addr ~len =
  if not (aligned addr len) then Error "unmap: unaligned or empty range"
  else begin
    split_at t addr;
    split_at t (addr + len);
    let finish = addr + len in
    set_vmas t (Imap.filter (fun s v -> not (s >= addr && vma_end v <= finish)) t.vmas);
    t.vma_count <- Imap.cardinal t.vmas;
    (* Drop page contents. *)
    for p = page_of_addr addr to page_of_addr (finish - 1) do
      drop_page t p
    done;
    (* Backing registrations fully inside the range die with the mapping. *)
    set_regions t
      (Imap.filter (fun s r -> not (s >= addr && s + region_len r <= finish)) t.regions);
    t.last_region <- no_region;
    bump_generation t;
    bump_data_epoch t;
    Ok ()
  end

let madvise_dontneed t ~addr ~len =
  if not (aligned addr len) then Error "madvise: unaligned or empty range"
  else begin
    for p = page_of_addr addr to page_of_addr (addr + len - 1) do
      drop_page t p
    done;
    bump_data_epoch t;
    Ok ()
  end

let check_access t ~pkru ~addr ~len ~write =
  if len <= 0 then Ok ()
  else begin
    let first = page_of_addr addr and last = page_of_addr (addr + len - 1) in
    let rec check page =
      if page > last then Ok ()
      else
        match find_vma t (page lsl page_shift) with
        | None -> Error Prot.Unmapped
        | Some v ->
            if (write && not v.prot.Prot.write) || ((not write) && not v.prot.Prot.read) then
              Error Prot.Prot_violation
            else if not (Mpk.allows pkru ~key:v.pkey ~write) then Error Prot.Pkey_violation
            else check (page + 1)
    in
    check first
  end

(* --- Sparse data store --- *)

(* The page-cache fill's read path: no option on a hit or a miss. *)
let get_page_ro t p =
  let r = region_of_page t p in
  if r == no_region then
    match Hashtbl.find t.pages p with b -> b | exception Not_found -> zero_page
  else
    let off = p - r.r_first in
    let b = frame r off in
    if b != no_frame then b
    else if r.r_shadow > 0 then
      match Hashtbl.find t.pages p with b -> b | exception Not_found -> image_page r off
    else image_page r off

(* A page frame for a fault, holding a copy of [src] ([zero_page] for an
   anonymous page): a reused one when any was dropped, else a fresh one. *)
let new_frame t src =
  match t.frames with
  | b :: rest ->
      t.frames <- rest;
      if src == zero_page then Bytes.fill b 0 page_size '\000'
      else Bytes.blit src 0 b 0 page_size;
      b
  | [] -> Bytes.copy src

(* A fresh backing page replaces the shared zero/image page for reads
   too, so any cached read-only view of the page is now stale: every
   materialization bumps [data_epoch]. *)
let get_page_rw t p =
  let r = region_of_page t p in
  if r == no_region then (
    match Hashtbl.find t.pages p with
    | b -> b
    | exception Not_found ->
        let b = new_frame t zero_page in
        Hashtbl.replace t.pages p b;
        bump_data_epoch t;
        b)
  else
    let off = p - r.r_first in
    let b = frame r off in
    if b != no_frame then b
    else if r.r_shadow > 0 && Hashtbl.mem t.pages p then Hashtbl.find t.pages p
    else begin
      (* Copy-on-write fault: privatize the image page. *)
      let b = new_frame t (image_page r off) in
      set_frame r off b;
      r.r_dirty <- off :: r.r_dirty;
      r.r_ndirty <- r.r_ndirty + 1;
      t.region_resident <- t.region_resident + 1;
      bump_data_epoch t;
      b
    end

let page_for_read t ~page = get_page_ro t page
let page_for_write t ~page = get_page_rw t page

let read8 t addr = Char.code (Bytes.get (get_page_ro t (page_of_addr addr)) (addr land (page_size - 1)))

let write8 t addr v =
  Bytes.set (get_page_rw t (page_of_addr addr)) (addr land (page_size - 1)) (Char.chr (v land 0xFF))

let within_page addr len = addr land (page_size - 1) <= page_size - len

let read16 t addr =
  if within_page addr 2 then
    Bytes.get_uint16_le (get_page_ro t (page_of_addr addr)) (addr land (page_size - 1))
  else read8 t addr lor (read8 t (addr + 1) lsl 8)

let write16 t addr v =
  if within_page addr 2 then
    Bytes.set_uint16_le (get_page_rw t (page_of_addr addr)) (addr land (page_size - 1)) (v land 0xFFFF)
  else begin
    write8 t addr v;
    write8 t (addr + 1) (v lsr 8)
  end

let read32 t addr =
  if within_page addr 4 then
    Bytes.get_int32_le (get_page_ro t (page_of_addr addr)) (addr land (page_size - 1))
  else
    let lo = read16 t addr and hi = read16 t (addr + 2) in
    Int32.logor (Int32.of_int lo) (Int32.shift_left (Int32.of_int hi) 16)

let write32 t addr v =
  if within_page addr 4 then
    Bytes.set_int32_le (get_page_rw t (page_of_addr addr)) (addr land (page_size - 1)) v
  else begin
    write16 t addr (Int32.to_int v land 0xFFFF);
    write16 t (addr + 2) (Int32.to_int (Int32.shift_right_logical v 16) land 0xFFFF)
  end

let read64 t addr =
  if within_page addr 8 then
    Bytes.get_int64_le (get_page_ro t (page_of_addr addr)) (addr land (page_size - 1))
  else
    let lo = read32 t addr and hi = read32 t (addr + 4) in
    Int64.logor
      (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)
      (Int64.shift_left (Int64.of_int32 hi) 32)

let write64 t addr v =
  if within_page addr 8 then
    Bytes.set_int64_le (get_page_rw t (page_of_addr addr)) (addr land (page_size - 1)) v
  else begin
    write32 t addr (Int64.to_int32 v);
    write32 t (addr + 4) (Int64.to_int32 (Int64.shift_right_logical v 32))
  end

let read_bytes t ~addr ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = a land (page_size - 1) in
    let chunk = min (len - !pos) (page_size - in_page) in
    Bytes.blit (get_page_ro t (page_of_addr a)) in_page out !pos chunk;
    pos := !pos + chunk
  done;
  out

let write_bytes t ~addr b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = a land (page_size - 1) in
    let chunk = min (len - !pos) (page_size - in_page) in
    Bytes.blit b !pos (get_page_rw t (page_of_addr a)) in_page chunk;
    pos := !pos + chunk
  done

let fill t ~addr ~len ~byte =
  let c = Char.chr (byte land 0xFF) in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let in_page = a land (page_size - 1) in
    let chunk = min (len - !pos) (page_size - in_page) in
    Bytes.fill (get_page_rw t (page_of_addr a)) in_page chunk c;
    pos := !pos + chunk
  done

let copy t ~src ~dst ~len =
  if len > 0 then begin
    (* Read-then-write gives memmove semantics for overlapping ranges. *)
    let data = read_bytes t ~addr:src ~len in
    write_bytes t ~addr:dst data
  end

let resident_pages t = Hashtbl.length t.pages + t.region_resident

(* --- Copy-on-write backing images --- *)

let image_of_data segments =
  let img_pages = Hashtbl.create 16 in
  let page_for p =
    match Hashtbl.find_opt img_pages p with
    | Some b -> b
    | None ->
        let b = Bytes.make page_size '\000' in
        Hashtbl.replace img_pages p b;
        b
  in
  List.iter
    (fun (off, s) ->
      if off < 0 then invalid_arg "image_of_data: negative offset";
      let len = String.length s in
      let pos = ref 0 in
      while !pos < len do
        let a = off + !pos in
        let in_page = a land (page_size - 1) in
        let chunk = min (len - !pos) (page_size - in_page) in
        Bytes.blit_string s !pos (page_for (a lsr page_shift)) in_page chunk;
        pos := !pos + chunk
      done)
    segments;
  { img_pages }

let image_pages img = Hashtbl.length img.img_pages

let find_region_exact t ~addr ~len =
  match Imap.find_opt addr t.regions with
  | Some r when region_len r = len -> Some r
  | Some _ | None -> None

let set_backing t ~addr ~len image =
  if not (aligned addr len) then Error "set_backing: unaligned or empty range"
  else if
    (* Regions never overlap, so only the last one starting before the
       range's end can reach into it. *)
    match Imap.find_last_opt (fun s -> s < addr + len) t.regions with
    | Some (s, r) -> s + region_len r > addr
    | None -> false
  then Error "set_backing: overlaps an existing backing region"
  else begin
    let r_first = page_of_addr addr and r_pages = page_of_addr len in
    let r_shadow =
      if Hashtbl.length t.pages = 0 then 0
      else
        Hashtbl.fold
          (fun p _ n -> if p >= r_first && p < r_first + r_pages then n + 1 else n)
          t.pages 0
    in
    set_regions t
      (Imap.add addr
        {
          r_first;
          r_pages;
          r_image = image;
          r_chunks = [||];
          r_dirty = [];
          r_ndirty = 0;
          r_shadow;
        }
        t.regions);
    (* Reads in the range change from zeros to the image contents. *)
    bump_data_epoch t;
    Ok ()
  end

let dirty_pages t ~addr =
  match Imap.find_opt addr t.regions with Some r -> r.r_ndirty | None -> 0

let recycle t ~addr ~len =
  match find_region_exact t ~addr ~len with
  | None -> Error "recycle: no backing region registered for this range"
  | Some r ->
      let n = r.r_ndirty in
      if n > 0 then begin
        List.iter (fun off -> release_region_frame t r off (frame r off)) r.r_dirty;
        r.r_dirty <- [];
        bump_data_epoch t
      end;
      Ok n
