(** Tolerant parser for the Cisco IOS dialect.

    The parser plays the role of Batfish's IOS front end: it accepts the
    routing-and-forwarding subset used by the paper, recovers from bad lines
    by skipping them, and reports every problem as a located {!Netcore.Diag.t}
    (the "parse warnings identifying relevant lines" fed to the humanizer).
    Known GPT-4 mistakes get targeted messages: CLI keywords, a literal
    community in [match community], neighbor/network statements outside the
    [router bgp] block, regexes in standard community lists. *)

val parse : string -> Policy.Config_ir.t * Netcore.Diag.t list
(** Never raises; an empty or hopeless input yields an empty config plus
    diagnostics. Returns exactly what {!parse_whole} returns.

    {b Blocks and the table.} A line whose trimmed form starts with [!]
    returns the line loop to top-level context, so the text between two
    such lines (a {e block}) parses the same wherever it sits. [parse]
    splits the text into its blocks and looks each one up by its text in a
    process-wide table; a miss runs the line loop on that block alone. The
    cached value holds the block's parsed pieces and its diagnostics
    numbered from the block's first line, and no mutable cell, so a hit is
    shared across runs and domains. A merge pass moves each block's
    diagnostic lines to its place, concatenates the blocks in order and
    builds the IR once, with the checks that span the whole text (duplicate
    prefix-list sequence numbers, neighbors without [remote-as], OSPF costs
    without a process). The table is mutex-guarded and bounded (4096
    blocks, a {!Netcore.Memo_table.Make} instance evicting its oldest
    eighth at the cap).

    {b Fallback.} Blocks still share state through a few keys: a route-map
    [(name, seq)] stanza, an interface opened again, an ACL given entries
    again, a second [router bgp] or [router ospf] header (BGP neighbors
    live inside the BGP block). When any of these keys appears in two
    blocks, the whole text is parsed by the same line loop instead: the
    line loop is the only code that gives a line its meaning.

    {b Cost.} Linear in the input size either way. A cold parse costs one
    line loop over every block plus the split and the merge. A redraft
    that repeats most blocks of an earlier text costs a scan, a copy and a
    hash of its bytes, the line loop on the blocks it changed, and the
    merge and IR build, which are linear in the number of entries. *)

val parse_whole : string -> Policy.Config_ir.t * Netcore.Diag.t list
(** The line loop over the whole text, without the table: what {!parse}
    must equal. For tests and equivalence checks. *)

val parse_clean : string -> (Policy.Config_ir.t, Netcore.Diag.t list) result
(** [Ok ir] only when there are no diagnostics at all. *)

val reset_cache : unit -> unit
(** Drop every cached block and zero the counters. Benchmarks call it to
    time cold parses, tests to compare cached against fresh results. *)

val audit_cache : unit -> (int, string) result
(** Re-parse every cached block without the table: [Ok n] when all [n]
    agree with their cached value, [Error line] giving the first line of a
    block that does not. *)
