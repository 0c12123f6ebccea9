(** The Arm host machine: executes translated code blocks, charging
    model cycles per instruction ({!Cost}), tracking per-thread
    statistics, the exclusive monitor for LDXR/STXR, and cache-line
    ownership for the CAS contention model (§7.4). *)

(** Why a block's execution faulted rather than exiting normally.
    [Trap_insn] is a deliberately planted {!Insn.Trap} (undecodable
    guest code, unresolvable link stub); the others are runtime
    faults the machine itself detects.  The machine never raises for
    guest-caused problems — it returns [Trapped] so the engine can
    fault one thread without tearing down the run. *)
type trap =
  | Trap_insn of { kind : string; context : string }
  | Unknown_helper of string
  | Unknown_host of string
  | Runaway  (** block executed too many host instructions *)
  | Fell_through of int  (** control ran past the end of the block *)

type exit_state = Next_tb of int64 | Jump of int64 | Halted | Trapped of trap

val pp_trap : Format.formatter -> trap -> unit

type shared
(** State shared by all guest threads: memory, cost model, helper
    registry. *)

type thread = {
  tid : int;
  regs : int64 array;  (** 32 registers; reads of 31 (XZR) return 0 *)
  mutable cmp : int64 * int64;  (** lazy NZCV: last comparison *)
  mutable exclusive : int64 option;  (** exclusive monitor address *)
  mutable cycles : int;
  mutable insns : int;
  mutable fences : int;
  mutable helper_calls : int;
  mutable host_calls : int;
  mutable last_dmb : bool;
  mutable halted : bool;
  mutable exit_code : int64;
  output : Buffer.t;
}

(** A helper receives the shared state, the calling thread and its
    arguments; it may charge extra cycles via {!charge}. *)
type helper = shared -> thread -> int64 list -> int64

val create_shared : ?cost:Cost.t -> Memsys.Mem.t -> shared
val mem : shared -> Memsys.Mem.t
val cost : shared -> Cost.t

(** Register (or replace) a helper.  Blocks prepared earlier see it
    from their next call instruction on. *)
val register_helper : shared -> string -> helper -> unit

val has_helper : shared -> string -> bool

(** Look up a registered helper (used by the engine's interpreter
    fallback to dispatch helper calls outside [exec_block]). *)
val find_helper : shared -> string -> helper option
val create_thread : int -> thread

(** Charge extra cycles to a thread (used by helpers). *)
val charge : thread -> int -> unit

(** Perform the cache-line ownership step of an atomic: acquires the
    line for the thread and charges the transfer cost if it was owned
    elsewhere. *)
val atomic_line : shared -> thread -> int64 -> unit

(** A code block with the helper of every [Blr_helper]/[Host_call]
    bound, so executing a call does not look its name up.  A name the
    registry lacks stays unbound and traps ([Unknown_helper] /
    [Unknown_host]) only when the call is reached.  When the registry
    changes ({!register_helper}) the block is bound again before its
    next call executes. *)
type prepared

(** Bind a block's calls against the registry of [shared]. *)
val prepare : shared -> Insn.t array -> prepared

(** The block a [prepared] was made from (physically the same array). *)
val code : prepared -> Insn.t array

(** Execute a prepared block until it reaches an exit instruction.
    After 9,999,999 instructions without an exit it traps with
    [Runaway]; running past the last instruction traps with
    [Fell_through]. *)
val exec_prepared : shared -> thread -> prepared -> exit_state

(** [exec_prepared] on a block not bound yet: the first call
    instruction reached binds all of the block's calls, as {!prepare}
    would, so a block without calls is never bound. *)
val exec_block : shared -> thread -> Insn.t array -> exit_state
