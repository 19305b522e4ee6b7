(* Shared state of the runtime's layers. The engine/instance records are
   mutually recursive, so they live here and the layers split along
   behavior instead: {!Instance} owns the slot lifecycle (claim, CoW
   instantiate, recycle, kill, growth), {!Transition} owns the
   sandbox-boundary cost model (per-class springboards, PKRU accounting),
   and {!Runtime} is the façade that callers see. The library is wrapped,
   so none of this leaks past [Sfi_runtime.Runtime]. *)

module X = Sfi_x86.Ast
module W = Sfi_wasm.Ast
module Space = Sfi_vmem.Space
module Machine = Sfi_machine.Machine
module Codegen = Sfi_core.Codegen
module Pool = Sfi_core.Pool

type trap = X.trap_kind

type fault =
  | Trap of trap
  | Fuel_exhausted
  | Pool_exhausted
  | Instance_dead

exception Fault of fault

let fault_name = function
  | Trap k -> "trap:" ^ X.trap_name k
  | Fuel_exhausted -> "fuel-exhausted"
  | Pool_exhausted -> "pool-exhausted"
  | Instance_dead -> "instance-dead"

type allocator = Simple of { reservation : int } | Pool of Pool.layout

(* Kolosick et al. (Isolation Without Taxation): most transitions need
   almost none of the save/restore work a full springboard performs.
   Classified at import registration:
   - [Pure]: no memory access, no stack switch, no PKRU write — a direct
     call through a minimal springboard;
   - [Readonly]: runs on the sandbox stack under the sandbox's own PKRU
     image (key 0 keeps the host block reachable), so both [wrpkru]s are
     elided;
   - [Full]: the general case — stack switch, exception-handler setup, and
     under ColorGuard a PKRU write each way. *)
type hostcall_class = Pure | Readonly | Full

(* Fixed address-space plan (within the 47-bit user space):
   - tables at the codegen config addresses (~0x3000_0000);
   - per-instance host blocks (vmctx + host stack) from 1 GiB;
   - code at 8 GiB (the machine's default);
   - linear-memory slab from 32 GiB. *)
let host_area_base = 0x4000_0000
let host_block_stride = 0x10_0000 (* 1 MiB *)
let host_stack_offset = 0x1_0000
let host_stack_bytes = 0x4_0000 (* 256 KiB *)
let host_block_len = host_stack_offset + host_stack_bytes
let slab_base = 0x8_0000_0000
let hostcall_halt = 0xFFFF

let wasm_page = W.page_size

(* Lifecycle and transition counters, all monotonic until a reset swaps
   in a fresh record. The same record is the live counters and, copied,
   the snapshot {!Runtime.metrics} returns. *)
type metrics = {
  mutable m_transitions : int; (* one-way sandbox crossings *)
  mutable m_calls_pure : int;
  mutable m_calls_readonly : int;
  mutable m_calls_full : int;
  mutable m_pkru_writes_elided : int;
  mutable m_pages_zeroed_on_recycle : int;
  mutable m_instantiations_cold : int; (* first use of a slot *)
  mutable m_instantiations_warm : int; (* recycled slot reuse *)
  mutable m_admitted : int; (* slot grants through the admission path *)
  mutable m_adm_queued : int; (* tickets parked by the admission controller *)
  mutable m_shed_sojourn : int; (* CoDel / ticket-deadline sheds *)
  mutable m_shed_rate_limited : int; (* per-tenant token-bucket sheds *)
  mutable m_shed_queue_full : int; (* queue-at-capacity sheds *)
}

(* The field-wise sum of [ms], and the record's only constructor: [sum []]
   is a fresh zero record and [sum [m]] a copy of [m]. *)
let sum ms =
  let s get = List.fold_left (fun acc m -> acc + get m) 0 ms in
  {
    m_transitions = s (fun m -> m.m_transitions);
    m_calls_pure = s (fun m -> m.m_calls_pure);
    m_calls_readonly = s (fun m -> m.m_calls_readonly);
    m_calls_full = s (fun m -> m.m_calls_full);
    m_pkru_writes_elided = s (fun m -> m.m_pkru_writes_elided);
    m_pages_zeroed_on_recycle = s (fun m -> m.m_pages_zeroed_on_recycle);
    m_instantiations_cold = s (fun m -> m.m_instantiations_cold);
    m_instantiations_warm = s (fun m -> m.m_instantiations_warm);
    m_admitted = s (fun m -> m.m_admitted);
    m_adm_queued = s (fun m -> m.m_adm_queued);
    m_shed_sojourn = s (fun m -> m.m_shed_sojourn);
    m_shed_rate_limited = s (fun m -> m.m_shed_rate_limited);
    m_shed_queue_full = s (fun m -> m.m_shed_queue_full);
  }

(* Domain-local aggregate of the same counters across every engine created
   on the calling domain. Engines are often created, exercised and dropped
   inside a single workload run (e.g. {!Sfi_workloads.Kernel.run}), so a
   harness that only sees the run's result can still report
   transition/lifecycle totals. *)
let domain_counters_key = Domain.DLS.new_key (fun () -> sum [])
let domain_counters () = Domain.DLS.get domain_counters_key

(* CoDel-style adaptive admission over the slot pool: a per-ticket sojourn
   deadline, a target-delay controller applied at dequeue (so the load shed
   is the load that waited longest, never random arrivals), and a
   token-bucket rate limiter per tenant. Armed via {!Runtime.set_admission};
   when absent, {!Runtime.admit} falls back to the blind bounded-FIFO retry
   queue of {!Runtime.instantiate_queued}. Time is the caller's simulated
   clock, passed on every call. *)
type admission_config = {
  target_delay_ns : float; (* CoDel target sojourn *)
  interval_ns : float; (* how long sojourn must exceed target before shedding *)
  ticket_deadline_ns : float; (* hard per-ticket sojourn bound *)
  tenant_rate : float; (* bucket refill, tokens per simulated second *)
  tenant_burst : float; (* bucket capacity, >= 1 *)
}

type token_bucket = { mutable tokens : float; mutable refilled_at : float }

type admission_state = {
  acfg : admission_config;
  aqueue : (int * float) Queue.t; (* (ticket, enqueued-at); stale heads skipped lazily *)
  amember : (int, float) Hashtbl.t; (* parked tickets -> enqueue time *)
  buckets : (int, token_bucket) Hashtbl.t; (* tenant -> rate-limit state *)
  mutable first_above : float; (* CoDel: when shedding may start; < 0 = below target *)
  mutable shed_run : int; (* consecutive CoDel sheds (control-law count) *)
  mutable pressure : float; (* ladder scale on target/deadline; 1.0 = normal *)
}

type engine = {
  machine : Machine.t;
  space : Space.t;
  compiled : Codegen.compiled;
  allocator : allocator;
  max_slots : int;
  mutable free_slots : int list;
  mutable next_slot : int;
  mutable live_slots : int; (* next_slot - List.length free_slots *)
  slot_mapped_pages : (int, int) Hashtbl.t; (* slot -> pages ever mapped *)
  imports : (string, import) Hashtbl.t;
  mutable current : instance option;
  (* Export name -> entry instruction index, resolved once at creation. *)
  entries : (string * int) array;
  (* The unfinished activation whose state the machine holds, if any: its
     context is saved only when another call or activation takes the
     machine (see {!Runtime.step}). *)
  mutable resident : activation option;
  transition_overhead_cycles : int;
  pure_springboard_cycles : int;
  readonly_springboard_cycles : int;
  mutable counters : metrics;
  retry_capacity : int;
  waiters : int Queue.t; (* tickets waiting for a slot, FIFO *)
  waiter_set : (int, unit) Hashtbl.t; (* same tickets, O(1) membership *)
  mutable admission : admission_state option; (* None = blind FIFO retry queue *)
  mutable slot_reserve : int; (* slots withheld from allocation (ladder) *)
  (* Pre-initialized module image, baked once at engine creation: data
     segments for the heap, the per-module vmctx template (memory bound,
     host PKRU image, global initial values). Every slot instantiates by
     mapping these copy-on-write. *)
  heap_image : Space.image;
  vmctx_image : Space.image;
  min_pages : int; (* the module's declared initial memory *)
  decl_max_pages : int; (* the module's declared maximum *)
  (* Structured-event sink shared with the machine; [Trace.null] by
     default. Transition spans, hostcall classes, lifecycle and fault
     events are emitted here. *)
  mutable trace : Sfi_trace.Trace.t;
}

and instance = {
  engine : engine;
  id : int;
  vmctx : int;
  heap : int;
  stack_top : int;
  inst_color : int;
  mutable pages : int;
  max_pages : int;
  mutable live : bool;
}

(* An epoch-style preemptible call. [ctx] holds its machine state while it
   is not resident; a resident activation's state is the machine's own. *)
and activation = {
  act_inst : instance;
  mutable ctx : Machine.context option;
  mutable done_ : bool;
  deadline : int option; (* fuel budget across the whole activation *)
  mutable spent : int; (* fuel consumed so far *)
}

and import = { im_fn : instance -> int64 array -> int64; im_class : hostcall_class }

let ok_exn what = function Ok () -> () | Error msg -> failwith (what ^ ": " ^ msg)

(* Add [n] to one counter of [e] and of the domain aggregate. [add] names
   the counter; a closed function is a static closure, so a bump
   allocates nothing. *)
let bump e (add : metrics -> int -> unit) n =
  add e.counters n;
  add (domain_counters ()) n
