(* The engine façade. The lifecycle layers live in {!Rt_types} (shared
   records), {!Instance} (slot claim / CoW instantiate / recycle / kill)
   and {!Transition} (boundary cost model); this module owns engine
   creation, hostcall dispatch, the retry queue, the invoke/activation
   machinery and the SFI sanitizer, and re-exports the lifecycle
   operations behind the historical [Runtime] interface. *)

include Rt_types
module Mpk = Sfi_vmem.Mpk
module Prot = Sfi_vmem.Prot
module Strategy = Sfi_core.Strategy

let machine e = e.machine
let space e = e.space
let compiled e = e.compiled
let instance_id i = i.id
let heap_base i = i.heap
let color i = i.inst_color
let memory_pages i = i.pages

let strategy e = e.compiled.Codegen.config.Codegen.strategy

(* --- hostcalls --- *)

let hostcall_handler e m id =
  let inst =
    match e.current with Some i -> i | None -> failwith "hostcall outside an invocation"
  in
  if id = hostcall_halt then raise (Machine.Hostcall_exit 0)
  else if id = Codegen.hostcall_memory_grow then begin
    let delta = Int64.to_int (Machine.get_reg m X.RDI) in
    Machine.set_reg m X.RAX (Int64.of_int (Instance.grow_memory e inst delta))
  end
  else begin
    let imports = e.compiled.Codegen.source.W.imports in
    if id < 0 || id >= Array.length imports then failwith "unknown hostcall id";
    let { W.iname; itype } = imports.(id) in
    let ft = e.compiled.Codegen.source.W.types.(itype) in
    let nargs = List.length ft.W.params in
    let args =
      Array.init nargs (fun k ->
          Machine.get_reg m (match k with 0 -> X.RDI | 1 -> X.RSI | _ -> X.RDX))
    in
    match Hashtbl.find_opt e.imports iname with
    | Some { im_fn; im_class } ->
        (* A hostcall is a transition pair: out of and back into the
           sandbox. What the pair costs depends on the class the import
           was registered with. *)
        Transition.charge_hostcall e inst im_class;
        let result = im_fn inst args in
        Machine.set_reg m X.RAX result
    | None -> failwith ("unresolved import: " ^ iname)
  end

(* --- engine creation --- *)

let create_engine ?cost ?tlb ?(fsgsbase_available = true) ?max_map_count
    ?(allocator = Simple { reservation = 4 * Sfi_util.Units.gib })
    ?(transition_overhead_cycles = 55) ?(pure_springboard_cycles = 10)
    ?(readonly_springboard_cycles = 24) ?(retry_queue_capacity = 64) ?code_base ?engine
    (compiled : Codegen.compiled) =
  let space = Space.create ?max_map_count () in
  let machine = Machine.create ?cost ?tlb ~fsgsbase_available ?code_base space in
  Option.iter (Machine.set_engine machine) engine;
  Machine.load_program machine compiled.Codegen.program;
  (* Indirect-call tables: code addresses and type ids, host memory. *)
  let cfg = compiled.Codegen.config in
  let table_len = Array.length compiled.Codegen.table_entries in
  let table_area = Sfi_util.Units.align_up (max 4096 (8 * table_len)) 4096 in
  ok_exn "map table"
    (Space.map space ~addr:cfg.Codegen.table_base ~len:table_area ~prot:Prot.r);
  ok_exn "map table types"
    (Space.map space ~addr:cfg.Codegen.table_types_base ~len:table_area ~prot:Prot.r);
  Array.iteri
    (fun i (label, tyid) ->
      Space.write64 space
        (cfg.Codegen.table_base + (8 * i))
        (Int64.of_int (Machine.label_address machine label));
      Space.write32 space (cfg.Codegen.table_types_base + (4 * i)) (Int32.of_int tyid))
    compiled.Codegen.table_entries;
  let max_slots =
    match allocator with
    | Simple _ -> 4096
    | Pool layout -> layout.Pool.params.Pool.num_slots
  in
  (* Bake the module image once: every instantiation afterwards maps it
     copy-on-write instead of rewriting data segments and vmctx fields. *)
  let src = compiled.Codegen.source in
  let min_pages, decl_max_pages =
    match src.W.memory with
    | Some { W.min_pages; max_pages } ->
        (min_pages, match max_pages with Some mx -> mx | None -> 65536)
    | None -> (0, 0)
  in
  let e =
    {
      machine;
      space;
      compiled;
      allocator;
      max_slots;
      free_slots = [];
      next_slot = 0;
      live_slots = 0;
      slot_mapped_pages = Hashtbl.create 64;
      imports = Hashtbl.create 8;
      current = None;
      entries =
        Array.of_list
          (List.map
             (fun (name, label) -> (name, Machine.label_index machine label))
             compiled.Codegen.entry_labels);
      resident = None;
      transition_overhead_cycles;
      pure_springboard_cycles;
      readonly_springboard_cycles;
      counters = sum [];
      retry_capacity = retry_queue_capacity;
      waiters = Queue.create ();
      waiter_set = Hashtbl.create 64;
      admission = None;
      slot_reserve = 0;
      heap_image = Instance.bake_heap_image src;
      vmctx_image = Instance.bake_vmctx_image src ~min_pages;
      min_pages;
      decl_max_pages;
      trace = Sfi_trace.Trace.null;
    }
  in
  Machine.set_hostcall_handler machine (fun m id -> hostcall_handler e m id);
  e

(* --- tracing --- *)

let trace e = e.trace

let set_trace e sink =
  e.trace <- sink;
  (* The machine wires the sink's clock to its cycle counter and the dTLB
     to its fill/evict events; the runtime layers read [e.trace] on every
     transition, lifecycle and fault path. *)
  Machine.set_trace e.machine sink

let register_import ?(clazz = Full) e name f =
  Hashtbl.replace e.imports name { im_fn = f; im_class = clazz }

(* --- instances (lifecycle re-exported from {!Instance}) --- *)

let try_instantiate e =
  match Instance.claim_slot e with
  | None -> Error Pool_exhausted
  | Some slot -> Ok (Instance.instantiate_slot e slot)

let instantiate e =
  match try_instantiate e with Ok inst -> inst | Error f -> raise (Fault f)

let instantiate_queued e ~ticket =
  (* Only the queue head (or a newcomer arriving at an empty queue) may
     claim a slot; everyone else keeps their FIFO position. Membership is
     O(1) via [waiter_set]; the queue itself stays the FIFO order. *)
  let queued = Hashtbl.mem e.waiter_set ticket in
  let is_head = Queue.peek_opt e.waiters = Some ticket in
  let enqueue () =
    if Queue.length e.waiters >= e.retry_capacity then `Rejected
    else begin
      Queue.push ticket e.waiters;
      Hashtbl.replace e.waiter_set ticket ();
      `Wait
    end
  in
  if is_head || ((not queued) && Queue.is_empty e.waiters) then
    match try_instantiate e with
    | Ok inst ->
        if is_head then begin
          ignore (Queue.pop e.waiters);
          Hashtbl.remove e.waiter_set ticket
        end;
        `Ready inst
    | Error Pool_exhausted -> if queued then `Wait else enqueue ()
    | Error f -> raise (Fault f)
  else if queued then `Wait
  else enqueue ()

let num_slots e = e.max_slots

let waiting e =
  match e.admission with
  | None -> Queue.length e.waiters
  | Some a -> Hashtbl.length a.amember

(* --- adaptive admission: CoDel queue + per-tenant token buckets --- *)

type shed_reason = Shed_sojourn | Shed_rate_limited | Shed_queue_full

let shed_reason_code = function
  | Shed_sojourn -> 0
  | Shed_rate_limited -> 1
  | Shed_queue_full -> 2

let default_admission =
  {
    target_delay_ns = 100_000.0;
    interval_ns = 500_000.0;
    ticket_deadline_ns = 2_000_000.0;
    tenant_rate = 10_000.0;
    tenant_burst = 16.0;
  }

let set_admission e = function
  | None -> e.admission <- None
  | Some acfg ->
      if
        acfg.target_delay_ns <= 0.0 || acfg.interval_ns <= 0.0
        || acfg.ticket_deadline_ns <= 0.0 || acfg.tenant_rate <= 0.0
        || acfg.tenant_burst < 1.0
      then invalid_arg "Runtime.set_admission: parameters must be positive (burst >= 1)";
      e.admission <-
        Some
          {
            acfg;
            aqueue = Queue.create ();
            amember = Hashtbl.create 64;
            buckets = Hashtbl.create 64;
            first_above = -1.0;
            shed_run = 0;
            pressure = 1.0;
          }

let set_admission_pressure e factor =
  if factor <= 0.0 || factor > 1.0 then
    invalid_arg "Runtime.set_admission_pressure: factor must be in (0, 1]";
  match e.admission with None -> () | Some a -> a.pressure <- factor

let set_slot_reserve e n =
  if n < 0 || n >= e.max_slots then
    invalid_arg "Runtime.set_slot_reserve: reserve must leave at least one slot";
  e.slot_reserve <- n

let admit e ~ticket ~tenant ~now =
  let count_admit () = bump e (fun c n -> c.m_admitted <- c.m_admitted + n) 1 in
  match e.admission with
  | None -> (
      (* Legacy path: the blind bounded-FIFO retry queue, with rejections
         mapped onto the capacity-shed reason so callers see one shape. *)
      match instantiate_queued e ~ticket with
      | `Ready _ as r ->
          count_admit ();
          r
      | `Wait -> `Wait
      | `Rejected ->
          bump e (fun c n -> c.m_shed_queue_full <- c.m_shed_queue_full + n) 1;
          `Shed Shed_queue_full)
  | Some a -> (
      let acfg = a.acfg in
      let target = acfg.target_delay_ns *. a.pressure in
      let deadline = acfg.ticket_deadline_ns *. a.pressure in
      (* Tickets shed while parked leave a stale queue entry behind; skip
         them lazily so the live head is always a member. *)
      let rec head () =
        match Queue.peek_opt a.aqueue with
        | Some (t, _) when not (Hashtbl.mem a.amember t) ->
            ignore (Queue.pop a.aqueue);
            head ()
        | h -> h
      in
      let grant ~sojourn inst =
        count_admit ();
        Sfi_trace.Trace.admission_admit e.trace ~tenant ~sojourn:(int_of_float sojourn);
        `Ready inst
      in
      let shed reason ~sojourn =
        (match reason with
        | Shed_sojourn -> bump e (fun c n -> c.m_shed_sojourn <- c.m_shed_sojourn + n) 1
        | Shed_rate_limited ->
            bump e (fun c n -> c.m_shed_rate_limited <- c.m_shed_rate_limited + n) 1
        | Shed_queue_full ->
            bump e (fun c n -> c.m_shed_queue_full <- c.m_shed_queue_full + n) 1);
        Sfi_trace.Trace.admission_shed e.trace ~tenant ~sojourn:(int_of_float sojourn)
          ~reason:(shed_reason_code reason);
        `Shed reason
      in
      match Hashtbl.find_opt a.amember ticket with
      | Some enq ->
          let sojourn = now -. enq in
          if sojourn > deadline then begin
            (* Hard per-ticket bound: a ticket that waited this long has
               lost its client; serving it would be wasted work. *)
            Hashtbl.remove a.amember ticket;
            shed Shed_sojourn ~sojourn
          end
          else begin
            match head () with
            | Some (t, _) when t = ticket ->
                (* Head re-presentation. The CoDel control law runs at
                   dequeue, so what gets shed is the slowest load — the
                   requests that waited longest — never random arrivals. *)
                let codel_shed =
                  if sojourn < target then begin
                    a.first_above <- -1.0;
                    a.shed_run <- 0;
                    false
                  end
                  else if a.first_above < 0.0 then begin
                    a.first_above <- now +. acfg.interval_ns;
                    false
                  end
                  else if now >= a.first_above then begin
                    a.shed_run <- a.shed_run + 1;
                    a.first_above <-
                      now +. (acfg.interval_ns /. sqrt (float_of_int (a.shed_run + 1)));
                    true
                  end
                  else false
                in
                if codel_shed then begin
                  ignore (Queue.pop a.aqueue);
                  Hashtbl.remove a.amember ticket;
                  shed Shed_sojourn ~sojourn
                end
                else begin
                  match try_instantiate e with
                  | Ok inst ->
                      ignore (Queue.pop a.aqueue);
                      Hashtbl.remove a.amember ticket;
                      grant ~sojourn inst
                  | Error Pool_exhausted -> `Wait
                  | Error f -> raise (Fault f)
                end
            | _ -> `Wait
          end
      | None -> (
          (* New arrival: charge the tenant's token bucket first. *)
          let bucket =
            match Hashtbl.find_opt a.buckets tenant with
            | Some b -> b
            | None ->
                let b = { tokens = acfg.tenant_burst; refilled_at = now } in
                Hashtbl.add a.buckets tenant b;
                b
          in
          let dt = now -. bucket.refilled_at in
          if dt > 0.0 then begin
            bucket.tokens <-
              Float.min acfg.tenant_burst
                (bucket.tokens +. (dt /. 1e9 *. acfg.tenant_rate));
            bucket.refilled_at <- now
          end;
          if bucket.tokens < 1.0 then shed Shed_rate_limited ~sojourn:0.0
          else begin
            bucket.tokens <- bucket.tokens -. 1.0;
            let enqueue () =
              if Hashtbl.length a.amember >= e.retry_capacity then
                shed Shed_queue_full ~sojourn:0.0
              else begin
                Queue.push (ticket, now) a.aqueue;
                Hashtbl.replace a.amember ticket now;
                bump e (fun c n -> c.m_adm_queued <- c.m_adm_queued + n) 1;
                Sfi_trace.Trace.admission_queue e.trace ~tenant
                  ~depth:(Hashtbl.length a.amember);
                `Wait
              end
            in
            match head () with
            | None -> (
                match try_instantiate e with
                | Ok inst -> grant ~sojourn:0.0 inst
                | Error Pool_exhausted -> enqueue ()
                | Error f -> raise (Fault f))
            | Some _ -> enqueue ()
          end))

let release = Instance.release
let kill = Instance.kill
let live inst = inst.live
let dirty_heap_pages = Instance.dirty_heap_pages

let read_memory inst ~addr ~len =
  Bytes.to_string (Space.read_bytes inst.engine.space ~addr:(inst.heap + addr) ~len)

let write_memory inst ~addr s =
  Space.write_bytes inst.engine.space ~addr:(inst.heap + addr) (Bytes.of_string s)

(* --- transitions and calls --- *)

let rec find_entry entries name i =
  if i = Array.length entries then raise Not_found
  else
    let n, idx = entries.(i) in
    if String.equal n name then idx else find_entry entries name (i + 1)

(* Caller-side argument pushes: the first argument lands just below
   [rsp]. Returns the final stack pointer. *)
let rec push_args space rsp = function
  | [] -> rsp
  | a :: rest ->
      let rsp = rsp - 8 in
      Space.write64 space rsp a;
      push_args space rsp rest

(* Save the resident activation's context before the machine is taken
   over. A killed or released instance never runs again (its next step
   reports [Instance_dead]), so its context is dropped, not saved. *)
let evict_resident e =
  match e.resident with
  | None -> ()
  | Some a ->
      if a.act_inst.live then a.ctx <- Some (Machine.save_context e.machine);
      e.resident <- None

let prepare_call inst name args =
  let e = inst.engine in
  let m = e.machine in
  let entry = find_entry e.entries name 0 in
  evict_resident e;
  e.current <- Some inst;
  Machine.set_seg_base m X.FS inst.vmctx;
  (* The native baseline's "absolute pointers": the base is implicit. *)
  if (strategy e).Strategy.addressing = Strategy.Direct then
    Machine.set_seg_base m X.GS inst.heap;
  (* Fail-closed PKRU: under ColorGuard, enter the call with the sandbox
     image already installed (the entry-sequence [wrpkru] then re-writes the
     same value). A mutant that skips the entry [wrpkru] therefore runs
     restricted rather than with the host's all-access rights — modeling a
     trampoline that switches PKRU before jumping to untrusted code. The
     host stack and vmctx stay reachable (key 0). *)
  let entry_pkru =
    if e.compiled.Codegen.config.Codegen.colorguard && inst.inst_color <> 0 then
      Mpk.allow_default_and inst.inst_color
    else Mpk.allow_all
  in
  Machine.set_pkru m entry_pkru;
  Machine.set_reg m X.RSP (Int64.of_int (push_args e.space inst.stack_top args));
  Transition.charge_entry e inst;
  Machine.start_at m entry

(* Emit a [fault] event carrying the machine's trap attribution (the
   faulting address and direction for access traps, [-1] otherwise). *)
let trace_fault e inst =
  if Sfi_trace.Trace.enabled e.trace then begin
    let addr, write =
      match Machine.last_fault_info e.machine with
      | Some { Machine.fault_addr; fault_write } -> (fault_addr, fault_write)
      | None -> (-1, false)
    in
    Sfi_trace.Trace.fault e.trace ~sandbox:inst.id ~addr ~write
  end

let finish inst status =
  let e = inst.engine in
  match status with
  | Machine.Halted ->
      Transition.charge_exit e inst;
      `Done (Machine.get_reg e.machine X.RAX)
  | Machine.Trapped k ->
      (* Fault first, exit-charge second: the instant then falls inside
         the transition span it aborted. *)
      trace_fault e inst;
      Transition.charge_exit e inst;
      `Trapped k
  | Machine.Yielded -> `More

let invoke ?(fuel = 1 lsl 30) inst name args =
  if not inst.live then raise (Fault Instance_dead);
  prepare_call inst name args;
  match finish inst (Machine.run inst.engine.machine ~fuel) with
  | `Done v -> Ok v
  | `Trapped k -> Error k
  | `More -> raise (Fault Fuel_exhausted)

let invoke_protected ?(fuel = 1 lsl 30) inst name args =
  if not inst.live then Error Instance_dead
  else begin
    prepare_call inst name args;
    match finish inst (Machine.run inst.engine.machine ~fuel) with
    | `Done v -> Ok v
    | `Trapped k ->
        Instance.kill inst;
        Error (Trap k)
    | `More ->
        (* The activation ran out of fuel mid-call: the transition span is
           still open; record the fault, close the span, then kill. *)
        Sfi_trace.Trace.fault inst.engine.trace ~sandbox:inst.id ~addr:(-1)
          ~write:false;
        Sfi_trace.Trace.call_end inst.engine.trace ~sandbox:inst.id;
        Instance.kill inst;
        Error Fuel_exhausted
  end

(* The user-level context switch, done lazily: [e.resident] is the
   activation the machine currently holds. Starting it leaves it resident
   with no copy taken; stepping it again while resident neither restores
   nor saves. Its context is saved only when the machine is taken over —
   by [prepare_call] or by a step of another activation — and restored by
   its own next step. It stops being resident when it finishes, traps or
   is killed. *)
let start_call ?deadline_fuel inst name args =
  if not inst.live then raise (Fault Instance_dead);
  prepare_call inst name args;
  let act =
    { act_inst = inst; ctx = None; done_ = false; deadline = deadline_fuel; spent = 0 }
  in
  inst.engine.resident <- Some act;
  act

let is_resident e act = match e.resident with Some a -> a == act | None -> false

(* The activation has finished, trapped or been killed. *)
let retire e act =
  act.done_ <- true;
  if is_resident e act then e.resident <- None

let step act ~fuel =
  if act.done_ then invalid_arg "Runtime.step: activation already finished";
  let e = act.act_inst.engine in
  if not act.act_inst.live then begin
    retire e act;
    `Fault Instance_dead
  end
  else begin
    let m = e.machine in
    if not (is_resident e act) then begin
      evict_resident e;
      (match act.ctx with
      | Some c ->
          Machine.restore_context m c;
          act.ctx <- None
      | None -> ());
      e.resident <- Some act;
      e.current <- Some act.act_inst
    end;
    match finish act.act_inst (Machine.run m ~fuel) with
    | `Done v ->
        retire e act;
        `Done v
    | `Trapped k ->
        retire e act;
        Instance.kill act.act_inst;
        `Trapped k
    | `More -> (
        act.spent <- act.spent + fuel;
        (* Watchdog: a runaway activation that overruns its epoch deadline
           is killed rather than rescheduled forever. *)
        match act.deadline with
        | Some limit when act.spent >= limit ->
            retire e act;
            Sfi_trace.Trace.fault e.trace ~sandbox:act.act_inst.id ~addr:(-1)
              ~write:false;
            Sfi_trace.Trace.call_end e.trace ~sandbox:act.act_inst.id;
            Instance.kill act.act_inst;
            `Fault Fuel_exhausted
        | _ -> `More)
  end

let last_fault_info e = Machine.last_fault_info e.machine

let attribute_address e addr =
  if addr < slab_base then `Host
  else begin
    let stride, accessible, pre =
      match e.allocator with
      | Simple { reservation } -> (reservation + (4 * Sfi_util.Units.gib), reservation, 0)
      | Pool layout ->
          ( layout.Pool.slot_bytes,
            layout.Pool.params.Pool.max_memory_bytes,
            layout.Pool.pre_slot_guard_bytes )
    in
    let off = addr - slab_base - pre in
    if off < 0 then `Guard 0
    else begin
      let slot = off / stride in
      if slot >= e.max_slots then `Guard (e.max_slots - 1)
      else if off mod stride < accessible then `Slot slot
      else `Guard slot
    end
  end

(* --- SFI sanitizer ---

   A shadow policy installed into the machine's sanitizer hook: every data
   access that the hardware accepted must land inside the current
   instance's own regions (its heap slot up to the current memory bound,
   its vmctx page, its host stack, the shared indirect-call tables), and
   under ColorGuard the PKRU in force must be exactly the sandbox's own
   image. Every indirect branch target must resolve inside the code
   region. Violations surface as {!Sanitizer_violation} raised at the
   faulting instruction — strictly stronger than the architectural checks,
   which happily let a sandbox touch a neighbour's mapped pages. *)

type violation = {
  v_kind : [ `Read | `Write | `Branch ];
  v_addr : int;
  v_len : int;
  v_pc : int;
  v_instr : string;
  v_instr_count : int;
  v_attribution : [ `Slot of int | `Guard of int | `Host ];
  v_detail : string;
}

exception Sanitizer_violation of violation

let kind_name = function `Read -> "read" | `Write -> "write" | `Branch -> "branch"

let attribution_name = function
  | `Slot n -> Printf.sprintf "slot %d" n
  | `Guard n -> Printf.sprintf "guard after slot %d" n
  | `Host -> "host memory"

let pp_violation ppf v =
  Format.fprintf ppf
    "sanitizer: out-of-sandbox %s of %d byte(s) at 0x%x (%s) — instruction #%d `%s` (pc %d): %s"
    (kind_name v.v_kind) v.v_len v.v_addr (attribution_name v.v_attribution) v.v_instr_count
    v.v_instr v.v_pc v.v_detail

let table_area_bytes e =
  Sfi_util.Units.align_up (max 4096 (8 * Array.length e.compiled.Codegen.table_entries)) 4096

let violation e m ~kind ~addr ~len ~detail =
  let pc = Machine.pc m in
  let instr =
    match Machine.instr_at m pc with
    | Some i -> Format.asprintf "%a" Sfi_x86.Ast.pp_instr i
    | None -> "<no instruction>"
  in
  Sanitizer_violation
    {
      v_kind = kind;
      v_addr = addr;
      v_len = len;
      v_pc = pc;
      v_instr = instr;
      v_instr_count = (Machine.counters m).Machine.instructions;
      v_attribution = attribute_address e addr;
      v_detail = detail;
    }

let arm_sanitizer e =
  let cfg = e.compiled.Codegen.config in
  let tables = table_area_bytes e in
  Machine.set_sanitizer e.machine
    (Some
       (fun m ~kind ~addr ~len ->
         match e.current with
         | None -> () (* host-side use of the machine, not sandboxed code *)
         | Some inst -> (
             match kind with
             | Machine.San_branch ->
                 let base, code_len = Machine.code_bounds m in
                 if not (addr >= base && addr < base + code_len) then
                   raise
                     (violation e m ~kind:`Branch ~addr ~len:0
                        ~detail:"indirect branch target outside the code region")
             | Machine.San_read | Machine.San_write ->
                 let kind' = if kind = Machine.San_write then `Write else `Read in
                 let lo = addr and hi = addr + max 1 len in
                 let within a b = lo >= a && hi <= b in
                 let in_regions =
                   within inst.heap (inst.heap + (inst.pages * wasm_page))
                   || within inst.vmctx (inst.vmctx + 4096)
                   || within (inst.vmctx + host_stack_offset) inst.stack_top
                   || within cfg.Codegen.table_base (cfg.Codegen.table_base + tables)
                   || within cfg.Codegen.table_types_base
                        (cfg.Codegen.table_types_base + tables)
                 in
                 if not in_regions then
                   raise
                     (violation e m ~kind:kind' ~addr ~len
                        ~detail:
                          (Printf.sprintf
                             "outside the sandbox's slot bounds (heap 0x%x + %d pages)"
                             inst.heap inst.pages));
                 if cfg.Codegen.colorguard && inst.inst_color <> 0 then begin
                   let expected = Mpk.allow_default_and inst.inst_color in
                   if Machine.get_pkru m <> expected then
                     raise
                       (violation e m ~kind:kind' ~addr ~len
                          ~detail:
                            (Printf.sprintf
                               "PKRU 0x%x in force instead of the sandbox image 0x%x (color %d)"
                               (Machine.get_pkru m) expected inst.inst_color))
                 end)))

(* --- debugging accessors used by the fuzz harness --- *)

let read_global inst i =
  Space.read64 inst.engine.space (inst.vmctx + Codegen.vmctx_globals + (8 * i))

let vmctx_addr inst = inst.vmctx

(* --- metrics --- *)

let metrics e = sum [ e.counters ]
let transitions e = e.counters.m_transitions
let instantiations e = e.counters.m_instantiations_cold + e.counters.m_instantiations_warm
let pages_zeroed e = e.counters.m_pages_zeroed_on_recycle
let elapsed_ns e = Machine.elapsed_ns e.machine

let reset_metrics e =
  Machine.reset_counters e.machine;
  e.counters <- sum []

(* Domain-local aggregate across every engine this domain has run —
   including engines created and dropped inside workload helpers, which a
   bench harness never sees directly. *)
let domain_metrics () = sum [ domain_counters () ]
let reset_domain_metrics () = Domain.DLS.set domain_counters_key (sum [])
let zero_metrics = sum []
let merged_metrics = sum

let counters =
  [
    ("transitions", "one-way sandbox crossings", fun m -> m.m_transitions);
    ("calls_pure", "hostcalls through the pure springboard", fun m -> m.m_calls_pure);
    ( "calls_readonly",
      "hostcalls through the read-only springboard",
      fun m -> m.m_calls_readonly );
    ("calls_full", "hostcalls through the full springboard", fun m -> m.m_calls_full);
    ( "pkru_writes_elided",
      "PKRU writes skipped by the elision rules",
      fun m -> m.m_pkru_writes_elided );
    ( "pages_zeroed_on_recycle",
      "dirty pages dropped by slot recycles",
      fun m -> m.m_pages_zeroed_on_recycle );
    ("instantiations_cold", "first-use slot bring-ups", fun m -> m.m_instantiations_cold);
    ("instantiations_warm", "recycled-slot reuses", fun m -> m.m_instantiations_warm);
    ("admission_admitted", "slot grants through admission", fun m -> m.m_admitted);
    ( "admission_queued",
      "tickets parked by the admission controller",
      fun m -> m.m_adm_queued );
    ("admission_shed_sojourn", "CoDel / ticket-deadline sheds", fun m -> m.m_shed_sojourn);
    ( "admission_shed_rate_limited",
      "per-tenant token-bucket sheds",
      fun m -> m.m_shed_rate_limited );
    ( "admission_shed_queue_full",
      "queue-at-capacity sheds",
      fun m -> m.m_shed_queue_full );
  ]
