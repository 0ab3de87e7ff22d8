(** Concrete fault instances: an error class applied at a location of a
    configuration, with functions to enumerate injection opportunities,
    corrupt the correct artifact, and render the corrupted text. *)

open Netcore
open Policy

type target =
  | Whole_config
  | Neighbor of Ipv4.t
  | Policy of string
  | Policy_entry of string * int
  | Interface of Iface.t
  | Named_list of string
  | Network of Prefix.t

type t = { class_ : Error_class.t; target : target }

type dialect = Cisco_cfg | Junos_cfg

val make : Error_class.t -> target -> t
val equal : t -> t -> bool
val to_string : t -> string
val target_to_string : target -> string

val opportunities : dialect -> Config_ir.t -> t list
(** Every fault instance that could be injected into this artifact: e.g. one
    [Ospf_cost_wrong] per OSPF interface, one [Missing_neighbor_decl] per
    neighbor, one [Redistribution_unscoped] when export policies carry
    source-protocol scoping. *)

type cache
(** A printer cache for one dialect: {!Cisco.Printer.cache} or
    {!Juniper.Printer.cache}. *)

val create_cache : dialect -> cache

val render : ?cache:cache -> dialect -> Config_ir.t -> t list -> string
(** Apply every fault to the correct IR, print in the dialect, then apply
    the text-level manglings (CLI keywords, misplaced neighbor lines, the
    /24-32 shorthand, dropped local-as lines). Unknown targets are ignored
    (rendering is total).

    A draft is printed through [cache] when one of its dialect is given, so
    a Cisco block or a Junos section the faults leave unchanged is printed
    once per cache rather than once per draft; the text is the same either
    way, and a cache of the other dialect is not used. {!Chat} passes its
    own cache: one per conversation, used by one domain at a time. *)
