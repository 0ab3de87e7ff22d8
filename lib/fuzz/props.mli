(** The fuzz property drivers: totality of every pipeline stage on
    arbitrary mutated config text, checked behind the {!Resilience.Guard}
    firewall. *)

type violation = {
  property : string;
      (** Which property broke: ["total-parse"], ["block-parse"],
          ["total-print"], ["print-reparse"], ["print-fixpoint"],
          ["total-differ"], ["total-bgp-sim"], ["total-ospf-sim"], or
          ["canary"]. *)
  stage : string;  (** The Guard label of the crashing stage. *)
  constructor : string;  (** Exception constructor (or synthetic tag). *)
  detail : string;
}

type escape = {
  dialect : Corpus.dialect;
  violation : violation;
  fingerprint : string;
  seed : int;  (** [-1] for corpus replays. *)
  round : int;
  input : string;
  minimized : string;  (** Shrunk trigger (or [input] when not minimized). *)
}

val escape_to_string : escape -> string

val check : Corpus.dialect -> string -> violation list
(** Run every property on one input: guarded parse; for Cisco, the
    block-incremental parse equal to {!Cisco.Parser.parse_whole}; guarded
    print → reparse → reprint with the printed forms compared (the
    parse∘print fixpoint, checked only when the first parse is clean);
    guarded differ against the stock reference in both directions; guarded
    BGP and OSPF simulation with the parse embedded in a well-formed
    3-router star. Empty list = all properties hold. *)

type report = { dialect : Corpus.dialect; inputs : int; escapes : escape list }

val run : ?schedule:Mutator.history -> Corpus.dialect -> seeds:int list -> mutations:int -> report
(** The fuzz loop: for every seed, [mutations] deterministic mutants of the
    dialect corpus, each run through {!check}. The first few escapes are
    minimized by {!Shrink.minimize}. With [schedule] the mutants come from
    {!Mutator.weighted_mutant} and crashing inputs reward their operators
    (1 point each, 2 when the input opened an unseen (stage, constructor)
    bucket), biasing later rounds toward productive operators. *)

val check_topology : string -> violation list
(** Totality of the topology verifier on an arbitrary JSON text: parse
    failures must be structured [Error]s, a parseable dictionary must
    verify (or structurally reject) any router without raising. *)

val check_policy : string -> violation list
(** Totality of the Cisco parse + semantic route-policy check
    ({!Batfish.Search_route_policies.check_all} against the full symbolic
    space) on an arbitrary policy fragment. *)

val run_topology :
  ?schedule:Mutator.history -> seeds:int list -> mutations:int -> unit -> report
(** {!run} over {!Corpus.topology_seeds} with {!check_topology}. The
    report's [dialect] is [Cisco] (the field keys replay only). *)

val run_policy :
  ?schedule:Mutator.history -> seeds:int list -> mutations:int -> unit -> report
(** {!run} over {!Corpus.policy_seeds} with {!check_policy}. *)

val fuzz_corrupted_findings :
  mode:Adversary.Findings.mode -> seed:int -> cases:int -> violation list
(** Loop-level totality of the feedback path: mutate realistic finding
    texts, pass each through {!Adversary.Findings.corrupt} at rate 1 for
    the given mode, and require the humanizer and the chat's prompt
    consumer to absorb every corrupted delivery without raising. *)

val fuzz_loop : mode:Adversary.Llm.mode -> seed:int -> rate:float -> violation list
(** One full translation loop under the given Byzantine-LLM mode at the
    given rate, behind the Guard firewall. Violations: the loop raised, the
    transcript exceeded its prompt budget, a hardened run carried no
    convergence certificate, or a rate-0 run carried one. *)

val replay_dir : string -> (string * escape list) list
(** Replay every [*.txt] file in a regression-corpus directory (files named
    [junos-*] are parsed as Junos, [topology-*] and [promoted-topology-*]
    go through the topology-dictionary target, everything else is parsed
    as Cisco). Promoted
    entries ([promoted-*] / [junos-promoted-*], see {!promote}) replay
    first — the youngest regressions fail the gate before budget goes to
    the long-stable seeds — each group sorted by filename. Missing
    directory = empty list. *)

val promote : dir:string -> escape list -> (string * escape) list
(** Promote crashers into a regression corpus: each escape whose
    (stage, constructor) triage bucket is not yet covered gets its
    minimized trigger written to [dir] as
    [promoted-<stage>-<constructor>.txt] (prefixed [junos-] for Junos
    inputs so {!replay_dir} replays it under the right dialect). The
    bucket slug is baked into the filename, so a bucket promoted by an
    earlier campaign — or earlier in the same list — is skipped:
    promotion is idempotent. Returns the (filename, escape) pairs
    actually written; creates [dir] when something needs writing. *)

val canary : ?max_rounds:int -> unit -> (escape, string) result
(** Fuzz a deliberately planted parser bug (raises on non-ASCII bytes)
    until the mutator triggers it, then minimize the crasher — the
    demonstration that the pipeline catches, shrinks and attributes a real
    bug. [Error] only if the budget (default 2000 rounds) never hits it. *)
