(** The Campion-equivalent differ: localized differences between an original
    (Cisco) configuration and its (Juniper) translation.

    Findings come in the paper's three semantic classes — structural
    mismatch, attribute difference, policy behavior difference — each
    localized to the component involved and, for behavior differences,
    carrying an example route, exactly the raw material Table 1's prompt
    formulas need.

    Export policies are compared {e effectively}: the Cisco side is first
    normalized with {!Juniper.Translate.of_cisco_ir} so that redistribution
    into BGP is part of the export policy on both sides; a difference whose
    witness is a non-BGP route is classified as a redistribution
    difference. *)

open Netcore
open Policy

type direction = Import | Export

type structural =
  | Missing_neighbor of { addr : Ipv4.t; missing_in_translation : bool }
  | Missing_acl_attachment of {
      iface : Iface.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_policy of {
      neighbor : Ipv4.t;
      direction : direction;
      missing_in_translation : bool;
    }
  | Missing_network of { network : Prefix.t; missing_in_translation : bool }
  | Missing_bgp_process of { missing_in_translation : bool }
  | Missing_ospf_interface of { iface : Iface.t; missing_in_translation : bool }

type attribute = {
  component : string;  (** E.g. ["OSPF link for Loopback0"]. *)
  translated_component : string;  (** E.g. ["lo0.0"]. *)
  attribute : string;  (** E.g. ["cost"]. *)
  original_value : string;
  translated_value : string;
}

type behavior = {
  policy : string;
  neighbor : Ipv4.t option;
  direction : direction;
  example : Route.t;
  original_action : Action.t;
  translated_action : Action.t;
  is_redistribution : bool;
      (** The witness is a non-BGP-sourced route: the difference is in what
          gets redistributed into BGP. *)
  effect_detail : (string * string * string) list;
      (** For same-action differences: (attribute, original, translated). *)
}

type acl_behavior = {
  acl : string;
  iface : Iface.t;
  acl_direction : direction;
  packet : Packet.t;
  original_packet_action : Action.t;
  translated_packet_action : Action.t;
}
(** A data-plane difference: a packet one side's filter permits and the
    other's denies, localized to the interface and direction the filters
    are attached at. *)

type finding =
  | Structural of structural
  | Attribute of attribute
  | Behavior of behavior
  | Acl_behavior of acl_behavior

val compare : original:Config_ir.t -> translation:Config_ir.t -> finding list
(** Structural findings first, then attributes, then behavior — the order
    the paper says matters ("syntax errors and structural mismatches have to
    be handled earlier since they can mask attribute differences and policy
    behavior differences"). *)

val equivalent : original:Config_ir.t -> translation:Config_ir.t -> bool

(** {2 Cache}

    {!compare} memoizes its three expensive, pure steps: the normalisation
    of the original, each route-map pair's symbolic diff and each ACL
    pair's symbolic diff. Keys are {e content}: the whole original IR; both
    sides' whole environments plus the two maps; the two ACLs. They are
    compared with [=] and hashed over their whole structure
    ({!Netcore.Memo_table.content_hash}). Findings are still assembled
    fresh on every call, so a cached call returns exactly what an uncached
    one would.

    The tables are process-wide, mutex-guarded and bounded (instances of
    {!Netcore.Memo_table.Make}, FIFO-evicting an eighth at the cap). They
    hold only honest results: the chaos and lie wrappers of
    [Resilience.Suite] sit above {!compare}, never below it. *)

val reset_cache : unit -> unit
(** Drop every cached entry and zero the counters. Benchmarks call it to
    time cold work, tests to compare cached against fresh results. *)

val audit_cache : unit -> (int, string) result
(** Recompute every live entry without the cache: [Ok n] when all [n]
    agree with their cached value, [Error table] naming the first table
    holding an entry that does not. *)

val direction_to_string : direction -> string
val finding_to_string : finding -> string
val pp_finding : Format.formatter -> finding -> unit
