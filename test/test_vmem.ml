(* Tests for the virtual-memory substrate: VMAs, MPK, TLB and MTE. *)

module Space = Sfi_vmem.Space
module Prot = Sfi_vmem.Prot
module Mpk = Sfi_vmem.Mpk
module Tlb = Sfi_vmem.Tlb
module Mte = Sfi_vmem.Mte

let ok = function Ok () -> () | Error m -> Alcotest.failf "unexpected error: %s" m
let err what = function Ok () -> Alcotest.failf "expected failure: %s" what | Error _ -> ()

let page = Space.page_size
let mb = 1 lsl 20

let test_map_unmap () =
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:(4 * page) ~prot:Prot.rw);
  Alcotest.(check int) "one vma" 1 (Space.vma_count s);
  err "overlap" (Space.map s ~addr:(mb + page) ~len:page ~prot:Prot.rw);
  err "unaligned addr" (Space.map s ~addr:(mb + 1) ~len:page ~prot:Prot.rw);
  err "empty" (Space.map s ~addr:(2 * mb) ~len:0 ~prot:Prot.rw);
  (match Space.find_vma s (mb + page) with
  | Some v ->
      Alcotest.(check int) "vma start" mb v.Space.start;
      Alcotest.(check int) "vma len" (4 * page) v.Space.len
  | None -> Alcotest.fail "vma not found");
  Space.write64 s mb 0xDEADL;
  ok (Space.unmap s ~addr:mb ~len:(4 * page));
  Alcotest.(check int) "no vmas" 0 (Space.vma_count s);
  Alcotest.(check bool) "contents dropped" true (Space.read64 s mb = 0L)

let test_protect_split_merge () =
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:(8 * page) ~prot:Prot.rw);
  (* Protect the middle: the VMA must split into three. *)
  ok (Space.protect s ~addr:(mb + (2 * page)) ~len:(2 * page) ~prot:Prot.none);
  Alcotest.(check int) "split into three" 3 (Space.vma_count s);
  (* Restore: the kernel-style merge collapses them back into one. *)
  ok (Space.protect s ~addr:(mb + (2 * page)) ~len:(2 * page) ~prot:Prot.rw);
  Alcotest.(check int) "merged back" 1 (Space.vma_count s);
  err "protect unmapped" (Space.protect s ~addr:(16 * mb) ~len:page ~prot:Prot.rw);
  (* Three separate mappings; re-keying the last two makes them equal, and
     they merge even though the first one cannot join them. *)
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:page ~prot:Prot.none);
  ok (Space.map s ~addr:(mb + page) ~len:page ~prot:Prot.rw);
  ok (Space.map s ~addr:(mb + (2 * page)) ~len:page ~prot:Prot.rw);
  Alcotest.(check int) "three mappings" 3 (Space.vma_count s);
  ok (Space.pkey_protect s ~addr:(mb + page) ~len:(2 * page) ~prot:Prot.rw ~key:3);
  Alcotest.(check int) "equal neighbours past an unmergeable one merge" 2 (Space.vma_count s);
  (* A split at the bottom of the lowest mapping heals with nothing
     mapped below it. *)
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:(2 * page) ~prot:Prot.rw);
  ok (Space.protect s ~addr:mb ~len:page ~prot:Prot.r);
  Alcotest.(check int) "split at the bottom" 2 (Space.vma_count s);
  ok (Space.protect s ~addr:mb ~len:page ~prot:Prot.rw);
  Alcotest.(check int) "merged back with nothing below" 1 (Space.vma_count s)

let test_pkey_and_access () =
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:(2 * page) ~prot:Prot.rw);
  ok (Space.pkey_protect s ~addr:mb ~len:(2 * page) ~prot:Prot.rw ~key:5);
  (match Space.page_info s ~addr:mb with
  | Some (_, key) -> Alcotest.(check int) "pkey stored" 5 key
  | None -> Alcotest.fail "unmapped");
  let allow5 = Mpk.allow_only [ 0; 5 ] in
  let allow7 = Mpk.allow_only [ 0; 7 ] in
  Alcotest.(check bool) "pkey allows" true
    (Space.check_access s ~pkru:allow5 ~addr:mb ~len:8 ~write:true = Ok ());
  (match Space.check_access s ~pkru:allow7 ~addr:mb ~len:8 ~write:false with
  | Error Prot.Pkey_violation -> ()
  | _ -> Alcotest.fail "expected pkey violation");
  (* Unmapped and protection faults are distinguished. *)
  (match Space.check_access s ~pkru:Mpk.allow_all ~addr:(64 * mb) ~len:8 ~write:false with
  | Error Prot.Unmapped -> ()
  | _ -> Alcotest.fail "expected unmapped");
  ok (Space.protect s ~addr:mb ~len:page ~prot:Prot.r);
  (match Space.check_access s ~pkru:Mpk.allow_all ~addr:mb ~len:8 ~write:true with
  | Error Prot.Prot_violation -> ()
  | _ -> Alcotest.fail "expected prot violation");
  (* A range straddling two pages checks both. *)
  (match
     Space.check_access s ~pkru:Mpk.allow_all ~addr:(mb + (2 * page) - 4) ~len:8 ~write:false
   with
  | Error Prot.Unmapped -> ()
  | _ -> Alcotest.fail "straddle should fault on the unmapped second page")

let test_madvise_zeroes_but_keeps_layout () =
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:page ~prot:Prot.rw);
  ok (Space.pkey_protect s ~addr:mb ~len:page ~prot:Prot.rw ~key:3);
  Space.write64 s mb 77L;
  let generation = Space.generation s in
  ok (Space.madvise_dontneed s ~addr:mb ~len:page);
  Alcotest.(check int64) "zeroed" 0L (Space.read64 s mb);
  (match Space.page_info s ~addr:mb with
  | Some (prot, key) ->
      Alcotest.(check bool) "still writable" true prot.Prot.write;
      (* The MPK color survives madvise — the §7 contrast with MTE. *)
      Alcotest.(check int) "color survives" 3 key
  | None -> Alcotest.fail "mapping lost");
  Alcotest.(check int) "no layout change" generation (Space.generation s)

let test_max_map_count () =
  let s = Space.create ~max_map_count:3 () in
  ok (Space.map s ~addr:mb ~len:page ~prot:Prot.rw);
  ok (Space.map s ~addr:(2 * mb) ~len:page ~prot:Prot.rw);
  ok (Space.map s ~addr:(3 * mb) ~len:page ~prot:Prot.rw);
  err "vma budget" (Space.map s ~addr:(4 * mb) ~len:page ~prot:Prot.rw);
  Alcotest.(check int) "reports limit" 3 (Space.max_map_count s)

(* A protect whose split would exceed the VMA budget must fail without a
   trace: the split and the new attributes used to stay in the map while
   [generation] did not move, so the TLB kept the old permissions. *)
let test_protect_over_budget_is_atomic () =
  let s = Space.create ~max_map_count:2 () in
  ok (Space.map s ~addr:mb ~len:(4 * page) ~prot:Prot.rw);
  ok (Space.map s ~addr:(2 * mb) ~len:page ~prot:Prot.rw);
  let probes = [ mb; mb + page - 1; mb + page; mb + (2 * page); mb + (4 * page) - 1 ] in
  let snapshot () =
    ( Space.vma_count s,
      Space.generation s,
      List.map (fun a -> (Space.find_vma s a, Space.page_info s ~addr:a)) probes )
  in
  let before = snapshot () in
  err "split past max_map_count"
    (Space.pkey_protect s ~addr:(mb + page) ~len:page ~prot:Prot.r ~key:3);
  Alcotest.(check bool) "vma count, generation, vmas and page info unchanged" true
    (snapshot () = before);
  (* The same update inside the budget still goes through. *)
  ok (Space.pkey_protect s ~addr:mb ~len:(4 * page) ~prot:Prot.r ~key:3);
  Alcotest.(check (option (pair bool int))) "whole-vma update applied" (Some (false, 3))
    (Option.map (fun (p, k) -> (p.Prot.write, k)) (Space.page_info s ~addr:(mb + page)))

let test_data_ops () =
  let s = Space.create () in
  ok (Space.map s ~addr:mb ~len:(2 * page) ~prot:Prot.rw);
  Space.write8 s mb 0xAB;
  Alcotest.(check int) "u8" 0xAB (Space.read8 s mb);
  Space.write16 s (mb + 1) 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Space.read16 s (mb + 1));
  Space.write32 s (mb + 8) 0xCAFE1234l;
  Alcotest.(check int32) "u32" 0xCAFE1234l (Space.read32 s (mb + 8));
  (* Cross-page accesses. *)
  let edge = mb + page - 4 in
  Space.write64 s edge 0x1122334455667788L;
  Alcotest.(check int64) "u64 cross page" 0x1122334455667788L (Space.read64 s edge);
  Space.write_bytes s ~addr:(mb + 100) (Bytes.of_string "hello world");
  Alcotest.(check string) "bytes roundtrip" "hello world"
    (Bytes.to_string (Space.read_bytes s ~addr:(mb + 100) ~len:11));
  Space.fill s ~addr:(mb + 200) ~len:300 ~byte:0x7;
  Alcotest.(check int) "fill" 7 (Space.read8 s (mb + 499));
  (* Overlapping copy is memmove-safe. *)
  Space.write_bytes s ~addr:(mb + 600) (Bytes.of_string "abcdef");
  Space.copy s ~src:(mb + 600) ~dst:(mb + 602) ~len:6;
  Alcotest.(check string) "memmove semantics" "ababcdef"
    (Bytes.to_string (Space.read_bytes s ~addr:(mb + 600) ~len:8));
  Alcotest.(check bool) "resident pages tracked" true (Space.resident_pages s > 0)

let test_mpk () =
  Alcotest.(check bool) "allow_all allows" true (Mpk.allows Mpk.allow_all ~key:9 ~write:true);
  let pkru = Mpk.allow_only [ 0; 4 ] in
  Alcotest.(check bool) "key 0" true (Mpk.allows pkru ~key:0 ~write:true);
  Alcotest.(check bool) "key 4" true (Mpk.allows pkru ~key:4 ~write:true);
  Alcotest.(check bool) "key 5 read" false (Mpk.allows pkru ~key:5 ~write:false);
  Alcotest.(check bool) "key 5 write" false (Mpk.allows pkru ~key:5 ~write:true);
  Alcotest.(check int) "15 usable colors" 15 Mpk.max_usable_keys;
  Alcotest.check_raises "bad key" (Invalid_argument "Mpk: key 16 out of range") (fun () ->
      ignore (Mpk.allow_only [ 16 ]))

let test_tlb () =
  let t = Tlb.create { Tlb.entries = 8; ways = 2; page_walk_levels = 4; walk_cycles_per_level = 5 }
  in
  Alcotest.(check int) "walk cost" 20 (Tlb.walk_cost t);
  Alcotest.(check bool) "cold miss" true (Tlb.lookup t ~page:1 = None);
  Tlb.fill t ~page:1 ~payload:42;
  Alcotest.(check (option int)) "hit returns payload" (Some 42) (Tlb.lookup t ~page:1);
  (* Fill a 2-way set beyond capacity: pages 1, 5, 9 map to the same set
     (4 sets); the LRU entry is evicted. *)
  Tlb.fill t ~page:5 ~payload:1;
  ignore (Tlb.lookup t ~page:1);
  (* 1 is now most recent; adding 9 evicts 5 *)
  Tlb.fill t ~page:9 ~payload:2;
  Alcotest.(check (option int)) "lru survivor" (Some 42) (Tlb.lookup t ~page:1);
  Alcotest.(check bool) "lru victim gone" true (Tlb.lookup t ~page:5 = None);
  Alcotest.(check bool) "hits counted" true (Tlb.hits t > 0);
  Alcotest.(check bool) "misses counted" true (Tlb.misses t > 0);
  Tlb.flush t;
  Alcotest.(check bool) "flush empties" true (Tlb.lookup t ~page:1 = None);
  Tlb.reset_counters t;
  Alcotest.(check int) "counters reset" 0 (Tlb.hits t)

(* Each fill must be a recency event of its own. Before the clock bump in
   [fill_slot], a filled line reused the last lookup's stamp: two
   back-to-back fills into one set tied at the same stamp and the second
   evicted the first, and a just-filled line lost LRU ties against lines
   touched long before it. *)
let test_tlb_fill_recency () =
  let t = Tlb.create { Tlb.entries = 2; ways = 2; page_walk_levels = 4; walk_cycles_per_level = 5 }
  in
  (* one set, two ways: consecutive fills must occupy distinct ways *)
  Tlb.fill t ~page:0 ~payload:10;
  Tlb.fill t ~page:1 ~payload:11;
  Alcotest.(check (option int)) "first fill survives the second" (Some 10) (Tlb.lookup t ~page:0);
  Alcotest.(check (option int)) "second fill present" (Some 11) (Tlb.lookup t ~page:1);
  (* page 1 is now older than page 0 (both were just looked up, page 1
     first): a fill evicts page 1, and the freshly filled page 2 must in
     turn survive the next fill while page 0 - older than it - is evicted *)
  ignore (Tlb.lookup t ~page:1);
  ignore (Tlb.lookup t ~page:0);
  Tlb.fill t ~page:2 ~payload:12;
  Alcotest.(check bool) "lru line evicted" true (Tlb.lookup t ~page:1 = None);
  Tlb.fill t ~page:3 ~payload:13;
  Alcotest.(check (option int)) "just-filled line outranks older lines" (Some 12)
    (Tlb.lookup t ~page:2);
  Alcotest.(check bool) "older line was the victim" true (Tlb.lookup t ~page:0 = None)

(* ------------------------------------------------------------------ *)
(* TLB: O(1) flush against an eager-flush reference.                   *)
(* ------------------------------------------------------------------ *)

(* The TLB as it was before the stamp-floor flush, verbatim: a flush
   clears every tag and stamp. The differential below holds the real TLB
   to exactly its slots, payloads, counters and trace events. *)
module Eager_tlb = struct
  type t = {
    ways : int;
    sets : int;
    tags : int array;
    payloads : int array;
    stamps : int array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    trace : Sfi_trace.Trace.t;
  }

  let create ~entries ~ways trace =
    {
      ways;
      sets = entries / ways;
      tags = Array.make entries (-1);
      payloads = Array.make entries 0;
      stamps = Array.make entries 0;
      clock = 0;
      hits = 0;
      misses = 0;
      trace;
    }

  let lookup_slot t ~page =
    let base = page mod t.sets * t.ways in
    t.clock <- t.clock + 1;
    let way = ref 0 in
    while !way < t.ways && t.tags.(base + !way) <> page do
      incr way
    done;
    if !way < t.ways then begin
      t.hits <- t.hits + 1;
      t.stamps.(base + !way) <- t.clock;
      base + !way
    end
    else begin
      t.misses <- t.misses + 1;
      -1
    end

  let fill_slot t ~page ~payload =
    let base = page mod t.sets * t.ways in
    let victim = ref 0 in
    for way = 1 to t.ways - 1 do
      if t.stamps.(base + way) < t.stamps.(base + !victim) then victim := way
    done;
    t.clock <- t.clock + 1;
    let displaced = t.tags.(base + !victim) in
    if displaced >= 0 then Sfi_trace.Trace.tlb_evict t.trace ~page:displaced;
    Sfi_trace.Trace.tlb_fill t.trace ~page;
    t.tags.(base + !victim) <- page;
    t.payloads.(base + !victim) <- payload;
    t.stamps.(base + !victim) <- t.clock;
    base + !victim

  let holds t ~slot ~page = t.tags.(slot) = page

  let touch t ~slot =
    t.clock <- t.clock + 1;
    t.hits <- t.hits + 1;
    t.stamps.(slot) <- t.clock

  let flush t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0
end

type tlb_op =
  | T_lookup of int
  | T_fill of int * int  (** page, payload *)
  | T_touch of int  (** index into the pinned slots *)
  | T_holds of int
  | T_flush

let tlb_op_to_string = function
  | T_lookup p -> Printf.sprintf "lookup %d" p
  | T_fill (p, v) -> Printf.sprintf "fill %d=%d" p v
  | T_touch i -> Printf.sprintf "touch #%d" i
  | T_holds i -> Printf.sprintf "holds #%d" i
  | T_flush -> "flush"

let tlb_ops_arb =
  let open QCheck.Gen in
  (* Few enough pages that sets overflow and flushed tags get looked up
     again. *)
  let page = int_bound 40 in
  let op =
    frequency
      [
        (6, map (fun p -> T_lookup p) page);
        (4, map2 (fun p v -> T_fill (p, v)) page (int_bound 1000));
        (4, map (fun i -> T_touch i) (int_bound 7));
        (2, map (fun i -> T_holds i) (int_bound 7));
        (1, return T_flush);
      ]
  in
  QCheck.make
    ~print:(fun (geo, ops) ->
      Printf.sprintf "%dx%d: %s" (fst geo) (snd geo)
        (String.concat "; " (List.map tlb_op_to_string ops)))
    (* Set counts that are and are not powers of two. *)
    (pair
       (oneofl [ (8, 2); (16, 4); (4, 4); (8, 1); (12, 2); (24, 8); (6, 1) ])
       (list_size (int_range 1 120) op))

let tlb_events ring =
  List.map (fun e -> (e.Sfi_trace.Trace.ev_name, e.ev_a0)) (Sfi_trace.Trace.events ring)

(* Drive both TLBs the way the machine does: slots returned by a lookup
   hit or a fill are pinned in a front cache, which a flush empties;
   [touch] only goes to a pinned slot that still [holds] its page. *)
let tlb_matches_eager ((entries, ways), ops) =
  let ring = Sfi_trace.Trace.create_ring ~capacity:512 ()
  and ref_ring = Sfi_trace.Trace.create_ring ~capacity:512 () in
  let t = Tlb.create { Tlb.entries; ways; page_walk_levels = 4; walk_cycles_per_level = 5 } in
  Tlb.set_trace t ring;
  let r = Eager_tlb.create ~entries ~ways ref_ring in
  let pins = ref [] in
  let pin slot page = if slot >= 0 then pins := (slot, page) :: !pins in
  let pinned i = match !pins with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let step op =
    match op with
    | T_lookup page ->
        let slot = Tlb.lookup_slot t ~page in
        let ref_slot = Eager_tlb.lookup_slot r ~page in
        pin slot page;
        slot = ref_slot && (slot < 0 || Tlb.payload t ~slot = r.Eager_tlb.payloads.(slot))
    | T_fill (page, payload) ->
        let slot = Tlb.fill_slot t ~page ~payload in
        pin slot page;
        slot = Eager_tlb.fill_slot r ~page ~payload
    | T_touch i -> (
        match pinned i with
        | Some (slot, page) ->
            let holds = Tlb.holds t ~slot ~page in
            if holds then begin
              Tlb.touch t ~slot;
              Eager_tlb.touch r ~slot
            end;
            holds = Eager_tlb.holds r ~slot ~page
        | None -> true)
    | T_holds i -> (
        match pinned i with
        | Some (slot, page) -> Tlb.holds t ~slot ~page = Eager_tlb.holds r ~slot ~page
        | None -> true)
    | T_flush ->
        Tlb.flush t;
        Eager_tlb.flush r;
        pins := [];
        true
  in
  List.for_all
    (fun op -> step op && Tlb.hits t = r.Eager_tlb.hits && Tlb.misses t = r.Eager_tlb.misses)
    ops
  && tlb_events ring = tlb_events ref_ring

let prop_tlb_matches_eager =
  QCheck.Test.make ~name:"tlb: O(1) flush matches an eager-flush reference" ~count:1000
    tlb_ops_arb tlb_matches_eager

(* ------------------------------------------------------------------ *)
(* Space against a brute-force model.                                  *)
(* ------------------------------------------------------------------ *)

(* The model keeps VMAs as a sorted list, private pages as whole-page
   byte copies and backing regions with their dirty sets. Every VMA
   operation is the kernel procedure spelled out on a list: split at the
   edges, update or drop what lies inside, then merge equal neighbours
   until none are left around the range. Reads of a page nobody wrote come from the covering
   region's image, else zeros. *)
module Space_model = struct
  type region = { rs : int; rl : int; img : int -> Bytes.t option; dirty : (int, unit) Hashtbl.t }

  type t = {
    mutable vmas : Space.vma list; (* sorted by start *)
    pages : (int, Bytes.t) Hashtbl.t;
    mutable regions : region list;
    max_map_count : int;
  }

  let create max_map_count =
    { vmas = []; pages = Hashtbl.create 16; regions = []; max_map_count }

  let vend (v : Space.vma) = v.start + v.len
  let find t a = List.find_opt (fun (v : Space.vma) -> v.start <= a && a < vend v) t.vmas
  let aligned a l = a >= 0 && l > 0 && a mod page = 0 && l mod page = 0
  let sorted l = List.sort (fun (a : Space.vma) b -> compare a.start b.start) l

  let split_at t a =
    match find t a with
    | Some v when v.start < a ->
        t.vmas <-
          sorted
            ({ v with len = a - v.start }
            :: { v with start = a; len = vend v - a }
            :: List.filter (fun w -> w != v) t.vmas)
    | Some _ | None -> ()

  (* The kernel's merge, stated without a walk: every VMA from the one
     ending at [addr] to the one starting at [addr + len] absorbs its
     adjacent successor while the two have equal attributes. *)
  let merge t addr len =
    let lo = match find t (addr - 1) with Some v -> v.start | None -> addr in
    let mergeable (v : Space.vma) (n : Space.vma) =
      n.start = vend v && n.prot = v.prot && n.pkey = v.pkey
    in
    let rec go () =
      let pair =
        List.find_map
          (fun (v : Space.vma) ->
            if v.start < lo || v.start > addr + len then None
            else Option.map (fun n -> (v, n)) (List.find_opt (mergeable v) t.vmas))
          t.vmas
      in
      match pair with
      | Some (v, n) ->
          t.vmas <-
            sorted ({ v with len = v.len + n.len } :: List.filter (fun w -> w != v && w != n) t.vmas);
          go ()
      | None -> ()
    in
    go ()

  let map t addr len prot =
    if not (aligned addr len) then false
    else if List.exists (fun (v : Space.vma) -> v.start < addr + len && vend v > addr) t.vmas
    then false
    else if List.length t.vmas >= t.max_map_count then false
    else begin
      t.vmas <- sorted ({ Space.start = addr; len; prot; pkey = Mpk.default_key } :: t.vmas);
      true
    end

  let update t addr len f =
    let rec covered a = a >= addr + len || (find t a <> None && covered (a + page)) in
    if not (aligned addr len && covered addr) then false
    else begin
      let before = t.vmas in
      split_at t addr;
      split_at t (addr + len);
      t.vmas <-
        List.map
          (fun (v : Space.vma) -> if v.start >= addr && vend v <= addr + len then f v else v)
          t.vmas;
      if List.length t.vmas > t.max_map_count then begin
        t.vmas <- before;
        false
      end
      else begin
        merge t addr len;
        true
      end
    end

  let region_of t p =
    let a = p * page in
    List.find_opt (fun r -> r.rs <= a && a < r.rs + r.rl) t.regions

  let drop_page t p =
    Hashtbl.remove t.pages p;
    Option.iter (fun r -> Hashtbl.remove r.dirty p) (region_of t p)

  let drop_range t addr len =
    for p = addr / page to ((addr + len) / page) - 1 do
      drop_page t p
    done

  let unmap t addr len =
    aligned addr len
    && begin
         split_at t addr;
         split_at t (addr + len);
         t.vmas <-
           List.filter
             (fun (v : Space.vma) -> not (v.start >= addr && vend v <= addr + len))
             t.vmas;
         drop_range t addr len;
         t.regions <-
           List.filter (fun r -> not (r.rs >= addr && r.rs + r.rl <= addr + len)) t.regions;
         true
       end

  let pristine t p =
    match region_of t p with
    | Some r -> (
        match r.img (p - (r.rs / page)) with
        | Some b -> Bytes.copy b
        | None -> Bytes.make page '\000')
    | None -> Bytes.make page '\000'

  let write8 t a v =
    let p = a / page in
    let b =
      match Hashtbl.find_opt t.pages p with
      | Some b -> b
      | None ->
          let b = pristine t p in
          Option.iter (fun r -> Hashtbl.replace r.dirty p ()) (region_of t p);
          Hashtbl.replace t.pages p b;
          b
    in
    Bytes.set b (a mod page) (Char.chr (v land 0xFF))

  let read8 t a =
    let p = a / page in
    let b =
      match Hashtbl.find_opt t.pages p with
      | Some b -> Some b
      | None -> Option.bind (region_of t p) (fun r -> r.img (p - (r.rs / page)))
    in
    match b with Some b -> Char.code (Bytes.get b (a mod page)) | None -> 0

  let set_backing t addr len img =
    aligned addr len
    && (not (List.exists (fun r -> r.rs < addr + len && r.rs + r.rl > addr) t.regions))
    && begin
         t.regions <- { rs = addr; rl = len; img; dirty = Hashtbl.create 4 } :: t.regions;
         true
       end

  let recycle t addr len =
    match List.find_opt (fun r -> r.rs = addr && r.rl = len) t.regions with
    | None -> None
    | Some r ->
        let n = Hashtbl.length r.dirty in
        Hashtbl.iter (fun p () -> Hashtbl.remove t.pages p) r.dirty;
        Hashtbl.reset r.dirty;
        Some n
end

(* Images: one spanning three pages (one absent), one empty. *)
let image_segments =
  [|
    [ (0, "pristine-image"); (page - 5, "crosses-a-page"); (3 * page + 100, String.make 300 'i') ];
    [];
  |]

let image_bytes segs =
  let pages = Hashtbl.create 4 in
  List.iter
    (fun (off, str) ->
      String.iteri
        (fun i c ->
          let a = off + i in
          let b =
            match Hashtbl.find_opt pages (a / page) with
            | Some b -> b
            | None ->
                let b = Bytes.make page '\000' in
                Hashtbl.replace pages (a / page) b;
                b
          in
          Bytes.set b (a mod page) c)
        str)
    segs;
  Hashtbl.find_opt pages

type space_op =
  | S_map of int * int * int  (** first page, pages, prot index *)
  | S_unmap of int * int
  | S_protect of int * int * int
  | S_pkey of int * int * int * int  (** ... key *)
  | S_madvise of int * int
  | S_backing of int * int * int  (** ... image index *)
  | S_recycle of int  (** index into the model's regions *)
  | S_recycle_range of int * int
  | S_write of int * int * int64  (** width in bytes, address, value *)
  | S_fill of int * int * int
  | S_read of int * int
  | S_read_page of int
  | S_reprotect of int  (** index into the window's VMAs: its own attributes again *)
  | S_twin of int * int * int  (** two equal maps side by side, then reprotect the first *)
  | S_big_write of int * int * int * int64  (** width, [big_pages] index, offset, value *)

let window_pages = 12
let prots = [| Prot.rw; Prot.r; Prot.none |]

(* A 4 GiB backing region far above the window, mapped and registered
   before the ops run, and the pages of it the ops write: offsets either
   side of the first chunk edges and up to its last page, so the region's
   page store grows its chunk index on demand. *)
let big_base = 16 * 1024 * mb
let big_len = 4 * 1024 * mb
let big_pages = [| 0; 63; 64; 4097; 1 lsl 19; (big_len / page) - 1 |]

let space_op_to_string = function
  | S_map (p, n, pr) -> Printf.sprintf "map %d+%d p%d" p n pr
  | S_unmap (p, n) -> Printf.sprintf "unmap %d+%d" p n
  | S_protect (p, n, pr) -> Printf.sprintf "protect %d+%d p%d" p n pr
  | S_pkey (p, n, pr, k) -> Printf.sprintf "pkey %d+%d p%d k%d" p n pr k
  | S_madvise (p, n) -> Printf.sprintf "madvise %d+%d" p n
  | S_backing (p, n, i) -> Printf.sprintf "backing %d+%d img%d" p n i
  | S_recycle i -> Printf.sprintf "recycle #%d" i
  | S_recycle_range (p, n) -> Printf.sprintf "recycle %d+%d" p n
  | S_write (w, a, v) -> Printf.sprintf "write%d %#x=%Ld" (8 * w) a v
  | S_fill (a, n, b) -> Printf.sprintf "fill %#x+%d=%d" a n b
  | S_read (w, a) -> Printf.sprintf "read%d %#x" (8 * w) a
  | S_read_page p -> Printf.sprintf "read page %d" p
  | S_reprotect i -> Printf.sprintf "reprotect vma #%d" i
  | S_twin (p, n, pr) -> Printf.sprintf "twin %d+%d+%d p%d" p n n pr
  | S_big_write (w, i, off, v) ->
      Printf.sprintf "big write%d page %d+%d=%Ld" (8 * w) big_pages.(i) off v

let space_ops_arb =
  let open QCheck.Gen in
  let range =
    int_bound (window_pages - 1) >>= fun p ->
    int_range 1 (min 4 (window_pages - p)) >|= fun n -> (p, n)
  in
  let addr = int_bound ((window_pages * page) - 1) in
  let op =
    frequency
      [
        (4, map2 (fun (p, n) pr -> S_map (p, n, pr)) range (int_bound 2));
        (1, map (fun (p, n) -> S_unmap (p, n)) range);
        (3, map2 (fun (p, n) pr -> S_protect (p, n, pr)) range (int_bound 2));
        (3, map3 (fun (p, n) pr k -> S_pkey (p, n, pr, k)) range (int_bound 2) (int_bound 3));
        (1, map (fun (p, n) -> S_madvise (p, n)) range);
        (2, map2 (fun (p, n) i -> S_backing (p, n, i)) range (int_bound 1));
        (2, map (fun i -> S_recycle i) (int_bound 3));
        (1, map (fun (p, n) -> S_recycle_range (p, n)) range);
        (6, map3 (fun w a v -> S_write (w, a, v)) (oneofl [ 1; 2; 4; 8 ]) addr ui64);
        (1, map3 (fun a n b -> S_fill (a, n, b)) addr (int_bound 5000) (int_bound 255));
        (3, map2 (fun w a -> S_read (w, a)) (oneofl [ 1; 2; 4; 8 ]) addr);
        (1, map (fun p -> S_read_page p) (int_bound (window_pages - 1)));
        (2, map (fun i -> S_reprotect i) (int_bound 7));
        (1, map2 (fun (p, n) pr -> S_twin (p, (n + 1) / 2, pr)) range (int_bound 2));
        ( 2,
          map4
            (fun w i off v -> S_big_write (w, i, off, v))
            (oneofl [ 1; 2; 4; 8 ])
            (int_bound (Array.length big_pages - 1))
            (int_bound (page - 8))
            ui64 );
      ]
  in
  QCheck.make
    ~print:(fun (mmc, ops) ->
      Printf.sprintf "max_map_count %d: %s" mmc
        (String.concat "; " (List.map space_op_to_string ops)))
    (* The big region's VMA takes one of the budget's slots. *)
    (pair (int_range 3 9) (list_size (int_range 1 60) op))

(* Addresses read after every step besides the fixed ones: any page of
   the window and a page either side, and pages of the big region. *)
let probes_arb =
  let open QCheck.Gen in
  list_size (int_range 1 8)
    (oneof
       [
         map (fun a -> mb - page + a) (int_bound (((window_pages + 2) * page) - 1));
         map (fun p -> big_base + (p * page)) (int_bound ((big_len / page) - 1));
       ])

let space_matches_model ((max_map_count, ops), probes) =
  let base = mb in
  let s = Space.create ~max_map_count () in
  let m = Space_model.create max_map_count in
  let images = Array.map Space.image_of_data image_segments in
  let model_images = Array.map image_bytes image_segments in
  let res = function Ok _ -> true | Error _ -> false in
  let read_n w a =
    match w with
    | 1 -> Int64.of_int (Space.read8 s a)
    | 2 -> Int64.of_int (Space.read16 s a)
    | 4 -> Int64.logand (Int64.of_int32 (Space.read32 s a)) 0xFFFFFFFFL
    | _ -> Space.read64 s a
  in
  let model_read_n w a =
    let v = ref 0L in
    for i = w - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Space_model.read8 m (a + i)))
    done;
    !v
  in
  let write w a v =
    (match w with
    | 1 -> Space.write8 s a (Int64.to_int v)
    | 2 -> Space.write16 s a (Int64.to_int v)
    | 4 -> Space.write32 s a (Int64.to_int32 v)
    | _ -> Space.write64 s a v);
    for i = 0 to w - 1 do
      Space_model.write8 m (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done
  in
  let pkey_protect (v : Space.vma) ~prot ~key =
    let got = res (Space.pkey_protect s ~addr:v.start ~len:v.len ~prot ~key) in
    (got, Space_model.update m v.start v.len (fun v -> { v with prot; pkey = key }))
  in
  (* [layout] counts the successful layout changes, each of which must
     move the generation by one: a reprotect that changes nothing too. *)
  let step op =
    let r = ref true and layout = ref 0 in
    let check_same got want = r := !r && got = want in
    let changed got = if got then incr layout in
    (match op with
    | S_map (p, n, pr) ->
        let got = res (Space.map s ~addr:(base + (p * page)) ~len:(n * page) ~prot:prots.(pr)) in
        check_same got (Space_model.map m (base + (p * page)) (n * page) prots.(pr));
        changed got
    | S_unmap (p, n) ->
        let got = res (Space.unmap s ~addr:(base + (p * page)) ~len:(n * page)) in
        check_same got (Space_model.unmap m (base + (p * page)) (n * page));
        changed got
    | S_protect (p, n, pr) ->
        let got =
          res (Space.protect s ~addr:(base + (p * page)) ~len:(n * page) ~prot:prots.(pr))
        in
        check_same got
          (Space_model.update m (base + (p * page)) (n * page) (fun v ->
               { v with prot = prots.(pr) }));
        changed got
    | S_pkey (p, n, pr, key) ->
        let got =
          res
            (Space.pkey_protect s ~addr:(base + (p * page)) ~len:(n * page) ~prot:prots.(pr)
               ~key)
        in
        check_same got
          (Space_model.update m (base + (p * page)) (n * page) (fun v ->
               { v with prot = prots.(pr); pkey = key }));
        changed got
    | S_madvise (p, n) ->
        ok (Space.madvise_dontneed s ~addr:(base + (p * page)) ~len:(n * page));
        Space_model.drop_range m (base + (p * page)) (n * page)
    | S_backing (p, n, i) ->
        check_same
          (res (Space.set_backing s ~addr:(base + (p * page)) ~len:(n * page) images.(i)))
          (Space_model.set_backing m (base + (p * page)) (n * page) model_images.(i))
    | S_recycle i -> (
        match m.Space_model.regions with
        | [] -> ()
        | regions ->
            let reg = List.nth regions (i mod List.length regions) in
            let got = Space.recycle s ~addr:reg.Space_model.rs ~len:reg.rl in
            check_same (Result.to_option got) (Space_model.recycle m reg.rs reg.rl))
    | S_recycle_range (p, n) ->
        let got = Space.recycle s ~addr:(base + (p * page)) ~len:(n * page) in
        check_same (Result.to_option got)
          (Space_model.recycle m (base + (p * page)) (n * page))
    | S_write (w, a, v) -> write w (base + a) v
    | S_big_write (w, i, off, v) -> write w (big_base + (big_pages.(i) * page) + off) v
    | S_reprotect i -> (
        match List.filter (fun (v : Space.vma) -> v.start < big_base) m.Space_model.vmas with
        | [] -> ()
        | vmas ->
            let v = List.nth vmas (i mod List.length vmas) in
            let got, want = pkey_protect v ~prot:v.prot ~key:v.pkey in
            check_same got want;
            changed got)
    | S_twin (p, n, pr) ->
        let map p =
          let got = res (Space.map s ~addr:(base + (p * page)) ~len:(n * page) ~prot:prots.(pr)) in
          check_same got (Space_model.map m (base + (p * page)) (n * page) prots.(pr));
          changed got;
          got
        in
        if map p && map (p + n) then begin
          let first =
            { Space.start = base + (p * page); len = n * page; prot = prots.(pr); pkey = Mpk.default_key }
          in
          let got, want = pkey_protect first ~prot:prots.(pr) ~key:Mpk.default_key in
          check_same got want;
          changed got
        end
    | S_fill (a, n, b) ->
        Space.fill s ~addr:(base + a) ~len:n ~byte:b;
        for i = 0 to n - 1 do
          Space_model.write8 m (base + a + i) b
        done
    | S_read (w, a) -> check_same (read_n w (base + a)) (model_read_n w (base + a))
    | S_read_page p ->
        let a = base + (p * page) in
        check_same
          (Space.read_bytes s ~addr:a ~len:page)
          (Bytes.init page (fun i -> Char.chr (Space_model.read8 m (a + i)))));
    (!r, !layout)
  in
  (* After every step: the VMA layout at every page edge and inside every
     page, dirty counts, residency, and a few bytes of every page, the big
     region's written pages included. *)
  let consistent () =
    Space.vma_count s = List.length m.Space_model.vmas
    && List.for_all
         (fun a -> Space.find_vma s a = Space_model.find m a && read_n 1 a = model_read_n 1 a)
         probes
    && List.for_all
         (fun p ->
           List.for_all
             (fun a -> Space.find_vma s a = Space_model.find m a)
             [ base + (p * page) - 1; base + (p * page); base + (p * page) + 2048 ])
         (List.init (window_pages + 2) Fun.id)
    && List.for_all
         (fun r ->
           Space.dirty_pages s ~addr:r.Space_model.rs = Hashtbl.length r.Space_model.dirty)
         m.Space_model.regions
    && Space.resident_pages s = Hashtbl.length m.Space_model.pages
    && List.for_all
         (fun p ->
           List.for_all
             (fun off -> read_n 8 (base + (p * page) + off) = model_read_n 8 (base + (p * page) + off))
             [ 0; 2044; page - 8 ])
         (List.init window_pages Fun.id)
    && Array.for_all
         (fun p ->
           List.for_all
             (fun off ->
               let a = big_base + (p * page) + off in
               read_n 8 a = model_read_n 8 a)
             [ 0; 2044; page - 8 ])
         big_pages
  in
  (* Lookups build the translation memo after a few hundred walks: walk
     until they have, so every step runs against the memo, stamps and
     all. *)
  let setup =
    ok (Space.map s ~addr:big_base ~len:big_len ~prot:Prot.rw);
    ok (Space.set_backing s ~addr:big_base ~len:big_len images.(0));
    let k = ref 0 in
    while (not (Space.memo_live s)) && !k < 100_000 do
      ignore (Space.find_vma s (big_base + (!k * page)));
      incr k
    done;
    Space_model.map m big_base big_len Prot.rw
    && Space_model.set_backing m big_base big_len model_images.(0)
  in
  setup && Space.memo_live s
  && List.for_all
       (fun op ->
         let generation = Space.generation s in
         let same, layout = step op in
         same && Space.generation s = generation + layout && consistent ())
       ops

let prop_space_matches_model =
  QCheck.Test.make ~name:"space matches a brute-force vma/page model" ~count:1000
    (QCheck.pair space_ops_arb
       (QCheck.make
          ~print:(fun l -> String.concat " " (List.map (Printf.sprintf "%#x") l))
          probes_arb))
    space_matches_model

(* A dropped frame comes back for the next fault: filled with the image
   page on a copy-on-write fault, with zeros on an anonymous one. *)
let test_frames_reused_clean () =
  let s = Space.create () in
  let img = Space.image_of_data [ (0, String.make page 'i') ] in
  ok (Space.map s ~addr:mb ~len:(2 * page) ~prot:Prot.rw);
  ok (Space.set_backing s ~addr:mb ~len:(2 * page) img);
  ok (Space.map s ~addr:(2 * mb) ~len:page ~prot:Prot.rw);
  let dirty_all addr = Space.fill s ~addr ~len:page ~byte:0xAB in
  let page_is addr c =
    Bytes.equal (Space.read_bytes s ~addr ~len:page) (Bytes.make page c)
  in
  dirty_all mb;
  dirty_all (mb + page);
  Alcotest.(check (result int string)) "two pages recycled" (Ok 2)
    (Space.recycle s ~addr:mb ~len:(2 * page));
  Space.write8 s (2 * mb) 0;
  Alcotest.(check bool) "reused frame zeroed for an anonymous page" true (page_is (2 * mb) '\000');
  Space.write8 s mb (Char.code 'i');
  Alcotest.(check bool) "reused frame holds the image page" true (page_is mb 'i');
  Space.write8 s (mb + page) 0;
  Alcotest.(check bool) "image hole reads as zeros" true (page_is (mb + page) '\000');
  Alcotest.(check int) "resident pages" 3 (Space.resident_pages s)

let test_mte () =
  let m = Mte.create () in
  Alcotest.(check int) "untagged is 0" 0 (Mte.tag_of m ~addr:0x100);
  Mte.st2g m ~addr:0x100 ~tag:7;
  Alcotest.(check int) "tagged" 7 (Mte.tag_of m ~addr:0x100);
  Alcotest.(check int) "st2g covers two granules" 7 (Mte.tag_of m ~addr:0x110);
  Alcotest.(check int) "third granule untouched" 0 (Mte.tag_of m ~addr:0x120);
  Alcotest.(check bool) "check matches" true (Mte.check m ~addr:0x100 ~ptr_tag:7);
  Alcotest.(check bool) "check mismatch" false (Mte.check m ~addr:0x100 ~ptr_tag:3);
  Mte.reset_counters m;
  (* Observation 1: a 64 KiB memory takes 2048 user tagging instructions. *)
  let instrs = Mte.tag_range_user m ~addr:0 ~len:65536 ~tag:5 in
  Alcotest.(check int) "2048 st2g per 64 KiB" 2048 instrs;
  Alcotest.(check int) "counter matches" 2048 (Mte.user_tag_instructions m);
  (* Observation 2: discard clears tags (madvise behaviour). *)
  let granules = Mte.discard_range m ~addr:0 ~len:65536 in
  Alcotest.(check int) "4096 granules per 64 KiB" 4096 granules;
  Alcotest.(check int) "tags gone" 0 (Mte.tag_of m ~addr:0x40);
  (* count_mismatched drives the proposed tag-preserving recycle path. *)
  Alcotest.(check int) "all mismatch after discard" 4096
    (Mte.count_mismatched m ~addr:0 ~len:65536 ~tag:5);
  ignore (Mte.tag_range_user m ~addr:0 ~len:65536 ~tag:5);
  Alcotest.(check int) "none mismatch when retagged" 0
    (Mte.count_mismatched m ~addr:0 ~len:65536 ~tag:5);
  Alcotest.(check int) "different color mismatches everywhere" 4096
    (Mte.count_mismatched m ~addr:0 ~len:65536 ~tag:7)

let prop_space_roundtrip =
  QCheck.Test.make ~name:"space write64/read64 roundtrip at random offsets" ~count:300
    QCheck.(pair (int_bound (4 * page - 8)) int64)
    (fun (off, v) ->
      let s = Space.create () in
      (match Space.map s ~addr:mb ~len:(4 * page) ~prot:Prot.rw with
      | Ok () -> ()
      | Error m -> failwith m);
      Space.write64 s (mb + off) v;
      Int64.equal (Space.read64 s (mb + off)) v)

let tests =
  [
    Harness.case "map/unmap" test_map_unmap;
    Harness.case "protect split/merge" test_protect_split_merge;
    Harness.case "pkey + access checks" test_pkey_and_access;
    Harness.case "madvise keeps colors" test_madvise_zeroes_but_keeps_layout;
    Harness.case "max_map_count" test_max_map_count;
    Harness.case "protect over the vma budget is atomic" test_protect_over_budget_is_atomic;
    Harness.case "data ops" test_data_ops;
    Harness.case "dropped frames reused clean" test_frames_reused_clean;
    QCheck_alcotest.to_alcotest prop_space_matches_model;
    Harness.case "mpk" test_mpk;
    Harness.case "tlb" test_tlb;
    Harness.case "tlb fill recency" test_tlb_fill_recency;
    QCheck_alcotest.to_alcotest prop_tlb_matches_eager;
    Harness.case "mte" test_mte;
    QCheck_alcotest.to_alcotest prop_space_roundtrip;
  ]
