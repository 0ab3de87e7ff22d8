(** Bounded, thread-safe memo tables for pure computations.

    One table maps a key to the value a pure function computes from it. It
    is shared across domains and guarded by a mutex; the computation runs
    outside the lock (a concurrent duplicate computation is harmless — both
    produce the same value). The table is {e success-only}: a computation
    that returns [Error] (or raises) leaves the table untouched, so a
    transient fault is never memoized as truth.

    The table is bounded. When it reaches its cap, the {e oldest eighth} of
    the entries is evicted (FIFO batch) rather than the whole table: a
    long-lived warm process (a multi-day sweep, the [cosynth serve] daemon)
    keeps most of its working set hot across the boundary instead of
    restarting from a 0% hit rate. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** Entries dropped by the bounded cap. *)
}

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the table is untouched. *)

module type S = sig
  type key
  type value

  val find_or_compute :
    key -> (unit -> (value, 'e) result) -> (value, 'e) result
  (** Consult the table; on a miss run the computation and store an [Ok]
      result. A bypassed failure still counts as a miss in {!stats}. *)

  val memo : key -> (unit -> value) -> value
  (** {!find_or_compute} for a computation that cannot fail. *)

  val fold : (key -> value -> 'a -> 'a) -> 'a -> 'a
  (** Fold over a snapshot of the live entries, oldest first. *)

  val stats : unit -> stats

  val reset : unit -> unit
  (** Drop every entry and zero the counters. *)

  val reset_stats : unit -> unit
  (** Zero the hit/miss counters but keep the table — per-phase hit rates
      without sacrificing the warm cache. *)

  type scope
  (** A counter snapshot; the non-destructive alternative to
      {!reset_stats} when phases can overlap. *)

  val scope : unit -> scope

  val scope_stats : scope -> stats
  (** Hits/misses accumulated since {!scope} (entries and evictions are
      current totals). *)
end

module Make
    (K : Hashtbl.HashedType)
    (V : sig
      type t

      val max_entries : int
      (** The cap; at least 1. *)
    end) : S with type key = K.t and type value = V.t

module Make_weighted
    (K : Hashtbl.HashedType)
    (V : sig
      type t

      val max_entries : int
      (** The cap on entries; at least 1. *)

      val max_weight : int
      (** The cap on the summed weight of the live keys. *)

      val weight : K.t -> int
      (** A key's weight, at least 0 (for example the bytes of its text). *)
    end) : S with type key = K.t and type value = V.t
(** {!Make} with a second bound: when an insert would take the summed key
    weight past [max_weight], the oldest entries go until an eighth of
    [max_weight] is free besides the new key. A key heavier than that
    empties the table and is kept alone. *)

val content_hash : 'a -> int
(** A hash over the {e whole} structure of a pure data value (no closures,
    no cycles): [Hashtbl.hash] of its unshared marshalled bytes.
    Structurally equal values hash equally. Plain [Hashtbl.hash] stops
    after a bounded breadth-first walk, so large keys that differ deep
    down collide. *)
