(** Persistent crash triage.

    The {!Guard} registry is per-process; fuzzing and chaos campaigns want
    crash buckets that survive across runs so a rare crasher seen once last
    week is not forgotten. [append] journals registry rows to an
    append-only JSONL file (one object per (stage, constructor) bucket per
    call, tagged with the run's seed); [load] merges the whole history back
    into per-bucket rows with counts summed and the first/last seed that
    observed each bucket. Rows ride {!Durable.Store} — CRC-framed and fsync'd
    before [append] returns, so a crash immediately after a counted
    crash cannot lose its triage row — and the format stays line-oriented
    on purpose: a writer that dies mid-line loses only that line, and
    [load] skips anything torn or malformed instead of failing. *)

type row = {
  stage : string;
  constructor : string;
  count : int;  (** Total across every journaled run. *)
  first_seed : int;  (** Seed of the earliest run that hit this bucket. *)
  last_seed : int;  (** Seed of the latest run that hit this bucket. *)
  first_ts : float option;
      (** Wall clock of the earliest {e timestamped} line for this bucket
          ([None] when every line predates timestamps). *)
  last_ts : float option;  (** Wall clock of the latest timestamped line. *)
}

val append :
  ?ts:float -> path:string -> seed:int -> (string * string * int) list -> unit
(** Journal [(stage, constructor, count)] rows (the {!Guard.crashes} shape)
    under the given seed, optionally stamped with a wall-clock time (the
    daemon passes one so `cosynth triage` can show first/last-seen; the
    seeded sweeps stay deterministic by omitting it). A no-op on an empty
    list — a clean run leaves the file untouched (and uncreated). *)

val record : ?ts:float -> path:string -> seed:int -> unit -> unit
(** [append] the current {!Guard.crashes} registry. *)

val load : string -> row list
(** Merged history, sorted by stage then constructor. A missing file is an
    empty history; malformed lines are skipped. *)
