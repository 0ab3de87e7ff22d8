(** Rendering the vendor-neutral IR as Cisco IOS configuration text.

    The output is canonical: parsing it back with {!Parser.parse} yields the
    same IR and no diagnostics (a property the test suite enforces).

    A config is printed as its top-level blocks — hostname, each interface,
    the static routes, each ACL, prefix list, community list, AS-path list
    and route map, then BGP and OSPF — each followed by a [!] line. *)

type cache
(** Printed text per block, keyed on the block's content (the IR it is
    printed from; an interface's key includes its OSPF interface). A cache
    only ever grows, and it is not synchronised: give each conversation its
    own (as [Llmsim.Chat] does) and use it from one domain at a time. *)

val create_cache : unit -> cache

val print : ?cache:cache -> Policy.Config_ir.t -> string
(** Print every block and concatenate them. With [cache], a block already
    in it is not printed again; the text is the same with or without one. *)

val print_route_map : Policy.Route_map.t -> string
val print_acl : Policy.Acl.t -> string
val print_prefix_list : Policy.Prefix_list.t -> string
val print_community_list : Policy.Community_list.t -> string

val match_cond_line : Policy.Route_map.match_cond -> string
val set_action_line : Policy.Route_map.set_action -> string
