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
   image; the first write to a page copies it into the space's private page
   store and records it in [r_private], so recycling the region is
   O(dirtied pages) — drop the private copies and reads revert to the
   image, exactly what madvise(MADV_DONTNEED) does to a MAP_PRIVATE file
   mapping. *)
type region = {
  r_start : int;
  r_len : int;
  r_image : image;
  r_private : (int, unit) Hashtbl.t; (* absolute page numbers dirtied *)
}

(* See [epochs] in the interface. *)
type epochs = { mutable generation : int; mutable data_epoch : int }

type t = {
  mutable vmas : vma Imap.t; (* keyed by start address *)
  mutable vma_count : int; (* [Imap.cardinal vmas], without the tree walk *)
  pages : (int, Bytes.t) Hashtbl.t;
  mutable frames : Bytes.t list;
      (* private pages dropped since materialization, reused by the next
         fault: no more frames than the peak resident count *)
  mutable regions : region Imap.t; (* keyed by start address *)
  max_map_count : int;
  epochs : epochs;
  (* [at_or_below s] is [s <= probe]: the predicate every VMA and region
     lookup passes to [Imap.find_last], allocated once with the space so
     the TLB-miss and page-cache-fill paths build no closure. *)
  mutable probe : int;
  at_or_below : int -> bool;
}

let create ?(max_map_count = 65530) () =
  let rec t =
    {
      vmas = Imap.empty;
      vma_count = 0;
      pages = Hashtbl.create 16;
      frames = [];
      regions = Imap.empty;
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

let vma_at t addr =
  t.probe <- addr;
  match Imap.find_last t.at_or_below t.vmas with
  | _, v when addr < vma_end v -> v
  | _ -> unmapped
  | exception Not_found -> unmapped

let find_vma t addr =
  let v = vma_at t addr in
  if v == unmapped then None else Some v

let page_info t ~addr =
  match find_vma t addr with Some v -> Some (v.prot, v.pkey) | None -> None

let aligned addr len =
  addr >= 0 && len > 0 && addr mod page_size = 0 && len mod page_size = 0

(* What [region_of_page] returns for a page no region covers; never
   written. *)
let no_region =
  { r_start = 0; r_len = 0; r_image = { img_pages = Hashtbl.create 1 }; r_private = Hashtbl.create 1 }

let region_of_page t p =
  let addr = p lsl page_shift in
  t.probe <- addr;
  match Imap.find_last t.at_or_below t.regions with
  | _, r when addr < r.r_start + r.r_len -> r
  | _ -> no_region
  | exception Not_found -> no_region

let image_page r p = Hashtbl.find_opt r.r_image.img_pages (p - (r.r_start lsr page_shift))

(* Take page [p]'s private frame out of the page store and keep it for
   reuse. Every caller bumps [data_epoch], which is what makes reuse safe:
   a [Bytes.t] cached from an older epoch is never read again. *)
let release_frame t p =
  match Hashtbl.find_opt t.pages p with
  | Some b ->
      Hashtbl.remove t.pages p;
      t.frames <- b :: t.frames
  | None -> ()

(* Forget a page's private copy; if a COW region covers it, its dirty set
   must forget it too (the next write re-privatizes from the image). *)
let drop_page t p =
  release_frame t p;
  let r = region_of_page t p in
  if r != no_region then Hashtbl.remove r.r_private p

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
    t.vmas <- Imap.add addr { start = addr; len; prot; pkey = Mpk.default_key } t.vmas;
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
      t.vmas <- Imap.add addr right (Imap.add v.start left t.vmas);
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
            t.vmas <- Imap.remove next.start t.vmas;
            t.vma_count <- t.vma_count - 1;
            t.vmas <- Imap.add v.start { v with len = v.len + next.len } t.vmas;
            merge_from v.start
        | Some _ | None -> merge_from (vma_end v))
    | Some _ | None -> ()
  in
  merge_from (match find_vma t (addr - 1) with Some v -> v.start | None -> addr)

(* Apply [f] to every VMA fully inside [addr, addr+len), after splitting at
   the edges. The range must be fully mapped. *)
let update_range t addr len f =
  if not (aligned addr len) then Error "unaligned or empty range"
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
          t.vmas <- Imap.add pos (f v) t.vmas;
          update (vma_end v)
        end
      in
      update addr;
      if vma_count t > t.max_map_count then begin
        (* Fail without a trace: the splits and new attributes never
           happened, so the unbumped [generation] stays truthful. *)
        t.vmas <- before;
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
    t.vmas <- Imap.filter (fun s v -> not (s >= addr && vma_end v <= finish)) t.vmas;
    t.vma_count <- Imap.cardinal t.vmas;
    (* Drop page contents. *)
    for p = page_of_addr addr to page_of_addr (finish - 1) do
      drop_page t p
    done;
    (* Backing registrations fully inside the range die with the mapping. *)
    t.regions <-
      Imap.filter (fun s r -> not (s >= addr && s + r.r_len <= finish)) t.regions;
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

let zero_page = Bytes.make page_size '\000'

(* The page-cache fill's read path: no option on a hit or a miss. *)
let get_page_ro t p =
  match Hashtbl.find t.pages p with
  | b -> b
  | exception Not_found -> (
      let r = region_of_page t p in
      match Hashtbl.find r.r_image.img_pages (p - (r.r_start lsr page_shift)) with
      | b -> b
      | exception Not_found -> zero_page)

(* A page frame for a fault: a reused one when any was dropped, else a
   fresh one. Its old contents are overwritten, by [src] or by zeros. *)
let new_frame t src =
  match (t.frames, src) with
  | b :: rest, Some img ->
      t.frames <- rest;
      Bytes.blit img 0 b 0 page_size;
      b
  | b :: rest, None ->
      t.frames <- rest;
      Bytes.fill b 0 page_size '\000';
      b
  | [], Some img -> Bytes.copy img
  | [], None -> Bytes.make page_size '\000'

let get_page_rw t p =
  match Hashtbl.find t.pages p with
  | b -> b
  | exception Not_found ->
      let r = region_of_page t p in
      let b =
        if r != no_region then begin
          (* Copy-on-write fault: privatize the image page. *)
          Hashtbl.replace r.r_private p ();
          new_frame t (image_page r p)
        end
        else new_frame t None
      in
      Hashtbl.replace t.pages p b;
      (* A fresh backing page replaces the shared zero/image page for reads
         too, so any cached read-only view of this page is now stale. *)
      bump_data_epoch t;
      b

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

let resident_pages t = Hashtbl.length t.pages

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
  | Some r when r.r_len = len -> Some r
  | Some _ | None -> None

let set_backing t ~addr ~len image =
  if not (aligned addr len) then Error "set_backing: unaligned or empty range"
  else if
    (* Regions never overlap, so only the last one starting before the
       range's end can reach into it. *)
    match Imap.find_last_opt (fun s -> s < addr + len) t.regions with
    | Some (s, r) -> s + r.r_len > addr
    | None -> false
  then Error "set_backing: overlaps an existing backing region"
  else begin
    t.regions <-
      Imap.add addr
        { r_start = addr; r_len = len; r_image = image; r_private = Hashtbl.create 16 }
        t.regions;
    (* Reads in the range change from zeros to the image contents. *)
    bump_data_epoch t;
    Ok ()
  end

let dirty_pages t ~addr =
  match Imap.find_opt addr t.regions with
  | Some r -> Hashtbl.length r.r_private
  | None -> 0

let recycle t ~addr ~len =
  match find_region_exact t ~addr ~len with
  | None -> Error "recycle: no backing region registered for this range"
  | Some r ->
      let n = Hashtbl.length r.r_private in
      if n > 0 then begin
        Hashtbl.iter (fun p () -> release_frame t p) r.r_private;
        Hashtbl.reset r.r_private;
        bump_data_epoch t
      end;
      Ok n
