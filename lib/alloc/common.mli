(** Shared machinery of the two-step allocation heuristics.

    All allocators work on a {!ctx}: the PTG plus the tabulated
    execution time of every task for every feasible processor count.
    Tabulating once up front keeps each heuristic a pure array
    computation and lets EMTS reuse the same tables for its fitness
    loop. *)

type ctx = {
  graph : Emts_ptg.Graph.t;
  procs : int;                  (** processors of the target cluster *)
  tables : float array array;   (** [tables.(v).(p-1)] = time of task [v] on [p] procs *)
}

val make_ctx :
  model:Emts_model.t ->
  platform:Emts_platform.t ->
  graph:Emts_ptg.Graph.t ->
  ctx
(** Tabulates the model over the platform's processor range. *)

val time_of : ctx -> Emts_sched.Allocation.t -> int -> float
(** [time_of ctx alloc v] is the execution time of [v] under its
    current allocation. *)

val times : ctx -> Emts_sched.Allocation.t -> float array

val critical_path : ctx -> Emts_sched.Allocation.t -> int list
(** One critical path under the current allocation (deterministic). *)

(** How CPA-family heuristics score giving one more processor to a
    critical task (see DESIGN.md on the under-specification in the
    original papers). *)
type gain =
  | Efficiency
      (** [T(v,s)/s - T(v,s+1)/(s+1)]: work-efficiency improvement —
          the published CPA criterion. *)
  | Absolute
      (** [T(v,s) - T(v,s+1)]: raw critical-path reduction — more
          aggressive growth; used for our HCPA instantiation. *)

val gain_value : ctx -> Emts_sched.Allocation.t -> gain -> int -> float
(** Score of adding one processor to task [v]; [neg_infinity] when the
    task is already at the cluster size. *)

(** CPA-style growth loop shared by CPA, HCPA and MCPA: start from the
    all-ones allocation and, while [T_CP > T_A] (critical-path length
    above the average area [(1/P) sum_v T(v, s(v)) * s(v)]), add one
    processor to the eligible critical-path task with the best positive
    gain (the first in path order on ties); stop when no eligible task
    improves.  Each step adds a processor to a task below [P], so there
    are at most [V * (P - 1)] steps.

    [eligible ~level_total v] restricts candidates: [level_total] is
    the summed current allocation of [v]'s precedence level (MCPA's
    per-level budget).

    The loop updates bottom levels incrementally (DESIGN.md §5) and
    returns the allocation the from-scratch definitions give, bit for
    bit.  It adds its step count and its number of recomputed bottom
    levels to the [alloc.growth.steps] and [alloc.growth.relaxed]
    counters once per call. *)
val growth_loop :
  gain:gain ->
  eligible:(level_total:int -> int -> bool) ->
  ctx ->
  Emts_sched.Allocation.t
