(** A thread-safe memo cache for {!Batfish.Parse_check.check}.

    The VPP loops re-verify the current draft after every prompt, and a
    stalled prompt (the simulated LLM "usually does nothing when asked to
    fix the error") leaves the draft byte-identical — so the same text is
    parsed and linted again and again. Parsing is pure, so the result can
    be memoized on [(dialect, text)]. The cache is shared across domains
    and guarded by a mutex; parse work happens outside the lock (a
    concurrent duplicate parse is harmless — both compute the same
    value). It is one instance of {!Netcore.Memo_table.Make_weighted},
    bounded both by entries (16,384) and by the bytes of its draft texts
    (32 MB): a 60-router hub draft is ~200 KB and keeps its IR alive beside
    it, so the entry bound alone let a long run hold gigabytes. *)

val check :
  Batfish.Parse_check.dialect ->
  string ->
  Policy.Config_ir.t * Netcore.Diag.t list
(** Same contract as {!Batfish.Parse_check.check}, memoized. *)

val check_result :
  Batfish.Parse_check.dialect ->
  string ->
  parse:(unit -> (Policy.Config_ir.t * Netcore.Diag.t list, 'e) result) ->
  (Policy.Config_ir.t * Netcore.Diag.t list, 'e) result
(** The failure-aware entry the resilience layer uses: consult the cache;
    on a miss run [parse]. The table is {e success-only} — only [Ok]
    results are cached, and an [Error] (a crashed, flaky or truncated
    verifier call) bypasses the table untouched, so a transient fault can
    never be memoized as truth. A bypassed failure still counts as a miss
    in {!stats}. *)

type stats = Netcore.Memo_table.stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
      (** Entries dropped by the bounded caps (see {!Netcore.Memo_table}):
          the oldest eighth goes when the table is full by entries, and the
          oldest entries until an eighth of the byte cap is free when it is
          full by bytes. *)
}

val stats : unit -> stats

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when the cache is untouched. *)

val reset : unit -> unit
(** Drop every entry and zero the counters (used between bench sections so
    per-experiment hit rates are meaningful). *)

val reset_stats : unit -> unit
(** Zero the hit/miss counters but keep the table — per-phase hit rates
    without sacrificing the warm cache (dropping it would also change the
    phase's own hit rate). *)

type scope
(** A counter snapshot; the non-destructive alternative to {!reset_stats}
    when phases can overlap (a bench section while a sweep is in flight). *)

val scope : unit -> scope

val scope_stats : scope -> stats
(** Hits/misses accumulated since {!scope} (entries is the current table
    size). *)
