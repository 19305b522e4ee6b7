(** A simulated user virtual address space.

    Backs the guard-region SFI story: Wasm engines allocate a 4 GiB linear
    memory followed by a 4 GiB unmapped guard region per sandbox, so that
    any "base + 33-bit offset" access either hits linear memory or traps
    (§2). ColorGuard replaces most guard space with MPK-colored slots (§3.2).

    The space tracks VMAs (start, length, protection, MPK key) like a kernel
    would, lazily materializes 4 KiB pages in a sparse store, and enforces
    a configurable [vm.max_map_count] — the Linux limit ColorGuard
    deployments must raise because each colored stripe is its own VMA
    (§5.1, "Other deployment considerations"). *)

type t

type vma = { start : int; len : int; prot : Prot.t; pkey : int }

val create : ?max_map_count:int -> unit -> t
(** Fresh empty space. [max_map_count] defaults to 65530 (Linux's default),
    the limit the paper notes must be raised to fully use ColorGuard. *)

val page_size : int
val page_of_addr : int -> int

(** {1 Mapping system calls} *)

val map : t -> addr:int -> len:int -> prot:Prot.t -> (unit, string) result
(** [mmap(MAP_FIXED)]-style: map [\[addr, addr+len)] with [prot] and the
    default pkey. Page-aligned arguments required. Fails on overlap with an
    existing mapping or when the VMA budget is exhausted. *)

val unmap : t -> addr:int -> len:int -> (unit, string) result

val protect : t -> addr:int -> len:int -> prot:Prot.t -> (unit, string) result
(** [mprotect]. The range must be fully mapped. Costs O(log n) per VMA
    the range covers, not O(VMAs in the space); re-applying the attributes
    of a range that is already exactly one VMA, with no neighbour to merge,
    costs a few lookups. Every success bumps [generation], whether or not
    the layout changed. On [Error] nothing changed. *)

val pkey_protect : t -> addr:int -> len:int -> prot:Prot.t -> key:int -> (unit, string) result
(** [pkey_mprotect] — assign an MPK color to a mapped range (§5.1, step 2 of
    ColorGuard). Splitting a VMA can exceed the map-count budget, which this
    reports as an error, leaving the layout as it was. *)

val madvise_dontneed : t -> addr:int -> len:int -> (unit, string) result
(** Zero the range's contents but keep mapping, protection and pkey — how
    Wasmtime recycles an instance slot. Notably MPK colors survive this call
    while MTE tags do not (§7, Observation 2); MTE tag discarding is modeled
    in {!Mte}. *)

(** {1 Inspection} *)

val find_vma : t -> int -> vma option

val unmapped : vma
(** What {!vma_at} returns for an address no VMA covers. *)

val vma_at : t -> int -> vma
(** {!find_vma} without the option: [unmapped] (compare with [==]) when
    nothing covers the address. For the TLB-miss walk, which runs on
    every request. *)

val vma_count : t -> int
val max_map_count : t -> int

val memo_live : t -> bool
(** Whether the space has built its translation memo. Lookups by page
    ({!vma_at}, {!find_vma}, {!page_info}, {!check_access} and the
    backing-region lookup of every data access) walk the VMA and region
    maps until the space has walked them a few hundred times; then a
    1,024-slot memo, indexed by a hash of the page, answers repeats. A
    slot stays valid until the VMAs or backing regions change: {!map},
    {!unmap}, a {!protect} or {!pkey_protect} that changes the layout, or
    {!set_backing}. A reprotect that changes nothing keeps it, although it
    bumps [generation]. Answers are the same either way. *)

type epochs = private {
  mutable generation : int;
      (** Incremented on every successful layout change ([map], [unmap],
          [protect], [pkey_protect]). The machine's TLB model uses this to
          invalidate cached translations, exactly as a kernel shoots down
          TLBs after mapping changes. *)
  mutable data_epoch : int;
      (** Incremented whenever a page's backing store changes identity — a
          fresh page is materialized, pages are discarded by
          [madvise_dontneed], [recycle] or [unmap], or a backing image is
          registered. Callers caching a [Bytes.t] from {!page_for_read} /
          {!page_for_write} must revalidate when this moves, and this is
          load-bearing: a discarded page's frame goes back to the space and
          the next materialization reuses it, so a [Bytes.t] held past an
          epoch change may by then hold another page's contents. *)
}
(** The space's two cache-invalidation counters, published in one cell.
    The space owns it and is the only writer ([private]: callers can read
    the fields but neither assign nor build one). The cell lives as long
    as the space, so a caller may keep a reference and read the current
    counters as plain field loads — the machine does this on every memory
    access, where a call into this module would not inline. *)

val epochs : t -> epochs
(** The space's counter cell. Always the same physical record. *)

val generation : t -> int
(** [(epochs t).generation]. *)

val data_epoch : t -> int
(** [(epochs t).data_epoch]. *)

val page_info : t -> addr:int -> (Prot.t * int) option
(** Protection and pkey covering this address, if mapped. *)

(** {1 Access checking}

    The machine consults this on every load/store, after its TLB model. *)

val check_access :
  t -> pkru:Mpk.pkru -> addr:int -> len:int -> write:bool -> (unit, Prot.fault) result

(** {1 Data access}

    Little-endian. These do {e not} re-check permissions — callers go
    through {!check_access} first (the machine does). Reading unmapped
    memory returns zeros, mirroring a fresh anonymous mapping. *)

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int32
val read64 : t -> int -> int64
val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int32 -> unit
val write64 : t -> int -> int64 -> unit

val page_for_read : t -> page:int -> bytes
(** The backing bytes of [page] for reading. Unmaterialized pages return a
    shared all-zero page — do {e not} write through this. Valid until
    {!data_epoch} changes. *)

val page_for_write : t -> page:int -> bytes
(** The backing bytes of [page], materializing it if needed (which bumps
    {!data_epoch}). Valid until {!data_epoch} changes again. *)

val read_bytes : t -> addr:int -> len:int -> bytes
val write_bytes : t -> addr:int -> bytes -> unit
val fill : t -> addr:int -> len:int -> byte:int -> unit
val copy : t -> src:int -> dst:int -> len:int -> unit
(** Overlap-safe (memmove semantics). *)

val resident_pages : t -> int
(** Number of materialized pages — a proxy for RSS, used to show that Wasm
    FaaS instances "rarely exceed a few hundred megabytes" of the 8 GiB
    reservation (§2). Pages served straight from a backing {!image} are
    shared, not resident. *)

(** {1 Copy-on-write backing images}

    How Wasmtime's pooling allocator gets its cold-start numbers: the
    pre-initialized module image (data segments, vmctx template) is mapped
    [MAP_PRIVATE] behind every slot. Reads hit the shared image; the first
    write to a page takes a CoW fault and privatizes it; recycling a slot
    is [madvise(MADV_DONTNEED)] over {e only the privatized pages}, after
    which reads see the pristine image again — O(dirtied pages), not
    O(heap size). *)

type image
(** An immutable page store shared by every region backed by it. *)

val image_of_data : (int * string) list -> image
(** Build an image from [(byte_offset, bytes)] segments, offsets relative
    to the start of the region the image will back. Untouched bytes read as
    zeros. *)

val image_pages : image -> int
(** Pages materialized in the image itself. *)

val set_backing : t -> addr:int -> len:int -> image -> (unit, string) result
(** Register [image] as the copy-on-write backing of [\[addr, addr+len)]
    and start dirty-page tracking for the range. Orthogonal to the VMA
    layer (map/protect the range separately); must not overlap another
    backing region, and must be registered before any page in the range is
    materialized (pages materialized earlier would escape the dirty
    tracking). An empty image gives a zero-backed tracked region. *)

val dirty_pages : t -> addr:int -> int
(** Privatized (dirtied) page count of the backing region starting at
    [addr]; 0 if none is registered. O(1). *)

val recycle : t -> addr:int -> len:int -> (int, string) result
(** Drop every private page of the backing region exactly covering
    [\[addr, addr+len)], so reads revert to the pristine image. Returns the
    number of pages dropped — the recycle's whole cost, O(dirty pages):
    the region keeps its private pages in its own store, indexed by page
    offset, beside the list of offsets dirtied.
    The dropped frames are kept for the space's next copy-on-write faults,
    so a warm recycle/fault cycle allocates no pages.
    Mapping, protection and pkeys are untouched (MPK colors survive, §7
    Observation 2). *)
