(** Rendering the vendor-neutral IR as Junos configuration text.

    Vendor mapping notes (also in DESIGN.md):
    - Prefix lists whose entries are all exact permits become
      [policy-options prefix-list] definitions and are referenced by name;
      lists with ge/le ranges or deny entries have no Junos prefix-list
      equivalent (the crux of the paper's "ge 24" issue), so their use sites
      are compiled through the symbolic prefix-space engine into equivalent
      pure-permit [route-filter] lines.
    - [set community] actions become named community definitions plus
      [community add]/[community set]/[community delete] then-clauses.
    - BGP network statements are rendered as
      [routing-options { announce { <prefix>; } }] — a documented stand-in
      for the direct-route origination policy real Junos would use.
    - Redistributions are not expressible directly; {!Translate.of_cisco_ir}
      folds them into export policies before printing. Any left in the IR
      are dropped with a [#] comment marker.

    A config is printed as its sections, concatenated: [system],
    [interfaces], [routing-options], [firewall], [protocols], then
    [policy-options], whose definitions (prefix lists, communities, AS-path
    lists) precede one [policy-statement] per route map. *)

type cache
(** Printed text per section, keyed on the IR the section is printed from:
    [system] on the hostname, [interfaces] on the interfaces,
    [routing-options] on the static routes and BGP, [firewall] on the ACLs,
    [protocols] on BGP and OSPF, each policy statement on its route map and
    the prefix and community lists it references
    ({!Policy.Route_map.list_references}), and the definitions on the prefix
    lists, the communities the statements register and the AS-path lists. A
    cache only ever grows, and it is not synchronised: give each
    conversation its own (as [Llmsim.Chat] does) and use it from one domain
    at a time. *)

val create_cache : unit -> cache

val print : ?cache:cache -> Policy.Config_ir.t -> string
(** Print every section and concatenate them. With [cache], a section
    already in it is not printed again; the text is the same with or without
    one. Community definitions keep their first-registration order: the
    lists cited in [community delete] actions first, then each statement's
    in route-map order. *)

val route_filters_of_prefix_list : Policy.Prefix_list.t -> (string * string) list
(** [(prefix, modifier)] pairs, e.g. [("1.2.3.0/24", "prefix-length-range /25-/30")].
    Exposed for tests. *)

val community_def_name : Netcore.Community.t list -> string
(** The synthesized [policy-options community] name for a member set. *)
