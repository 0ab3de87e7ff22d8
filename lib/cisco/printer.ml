open Netcore
open Policy

let match_cond_line = function
  | Route_map.Match_prefix_list n -> Printf.sprintf "match ip address prefix-list %s" n
  | Route_map.Match_community_list n -> Printf.sprintf "match community %s" n
  | Route_map.Match_as_path n -> Printf.sprintf "match as-path %s" n
  | Route_map.Match_source_protocol s ->
      Printf.sprintf "match source-protocol %s" (Route.source_to_string s)
  | Route_map.Match_med m -> Printf.sprintf "match metric %d" m
  | Route_map.Match_tag t -> Printf.sprintf "match tag %d" t

let set_action_line = function
  | Route_map.Set_med m -> Printf.sprintf "set metric %d" m
  | Route_map.Set_local_pref p -> Printf.sprintf "set local-preference %d" p
  | Route_map.Set_community { communities; additive } ->
      Printf.sprintf "set community %s%s"
        (String.concat " " (List.map Community.to_string communities))
        (if additive then " additive" else "")
  | Route_map.Set_community_delete n -> Printf.sprintf "set comm-list %s delete" n
  | Route_map.Set_next_hop a -> Printf.sprintf "set ip next-hop %s" (Ipv4.to_string a)
  | Route_map.Set_as_path_prepend asns ->
      Printf.sprintf "set as-path prepend %s"
        (String.concat " " (List.map string_of_int asns))

let print_prefix_list (l : Prefix_list.t) =
  let entry (e : Prefix_list.entry) =
    let r = e.range in
    let base = Prefix.to_string (Prefix_range.base r) in
    let ge = Prefix_range.ge_bound r and le = Prefix_range.le_bound r in
    let blen = Prefix.len (Prefix_range.base r) in
    let bounds =
      if ge = blen && le = blen then ""
      else if le = 32 && ge > blen then Printf.sprintf " ge %d" ge
      else if ge = blen then Printf.sprintf " le %d" le
      else Printf.sprintf " ge %d le %d" ge le
    in
    Printf.sprintf "ip prefix-list %s seq %d %s %s%s" l.name e.seq
      (Action.to_string e.action) base bounds
  in
  String.concat "\n" (List.map entry l.entries)

let print_community_list (l : Community_list.t) =
  let entry (e : Community_list.entry) =
    Printf.sprintf "ip community-list standard %s %s %s" l.name
      (Action.to_string e.action)
      (String.concat " " (List.map Community.to_string e.communities))
  in
  String.concat "\n" (List.map entry l.entries)

let print_as_path_list (l : As_path_list.t) =
  let entry (e : As_path_list.entry) =
    Printf.sprintf "ip as-path access-list %s %s %s" l.name
      (Action.to_string e.action) e.regex
  in
  String.concat "\n" (List.map entry l.entries)

let print_route_map (m : Route_map.t) =
  let stanza (e : Route_map.entry) =
    (Printf.sprintf "route-map %s %s %d" m.name (Action.to_string e.action) e.seq
    :: List.map (fun c -> " " ^ match_cond_line c) e.matches)
    @ List.map (fun s -> " " ^ set_action_line s) e.sets
  in
  String.concat "\n" (List.concat_map stanza m.entries)

let addr_spec p =
  if Prefix.equal p Prefix.default then "any"
  else if Prefix.len p = 32 then "host " ^ Ipv4.to_string (Prefix.addr p)
  else
    Printf.sprintf "%s %s"
      (Ipv4.to_string (Prefix.addr p))
      (Ipv4.to_string (Netmask.wildcard_of_len (Prefix.len p)))

let print_acl (a : Acl.t) =
  let entry (e : Acl.entry) =
    let proto =
      match e.Acl.proto with
      | Acl.Any_proto -> "ip"
      | Acl.Proto p -> Packet.proto_to_string p
    in
    let port =
      match e.Acl.dst_port with
      | Acl.Any_port -> ""
      | Acl.Eq p -> Printf.sprintf " eq %d" p
      | Acl.Port_range (lo, hi) -> Printf.sprintf " range %d %d" lo hi
    in
    Printf.sprintf " %s %s %s %s%s"
      (Action.to_string e.Acl.action)
      proto (addr_spec e.Acl.src) (addr_spec e.Acl.dst) port
  in
  String.concat "\n"
    ((Printf.sprintf "ip access-list extended %s" a.Acl.name)
    :: List.map entry a.Acl.entries)

let print_interface (i : Config_ir.interface) (oi : Config_ir.ospf_interface option) =
  let buf = Buffer.create 64 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "interface %s" (Iface.cisco_name i.iface);
  (match i.description with Some d -> line " description %s" d | None -> ());
  (match i.address with
  | Some (a, len) ->
      line " ip address %s %s" (Ipv4.to_string a) (Ipv4.to_string (Netmask.mask_of_len len))
  | None -> ());
  (match oi with
  | Some { Config_ir.cost = Some c; _ } -> line " ip ospf cost %d" c
  | _ -> ());
  (match i.acl_in with Some n -> line " ip access-group %s in" n | None -> ());
  (match i.acl_out with Some n -> line " ip access-group %s out" n | None -> ());
  if i.shutdown then line " shutdown";
  Buffer.contents buf

let print_redistribution (r : Config_ir.redistribution) =
  let proto =
    match r.from_protocol with
    | Route.Ospf -> "ospf 1"
    | Route.Bgp -> "bgp 1"
    | Route.Connected -> "connected"
    | Route.Static -> "static"
  in
  match r.policy with
  | Some p -> Printf.sprintf " redistribute %s route-map %s" proto p
  | None -> Printf.sprintf " redistribute %s" proto

let print_bgp (b : Config_ir.bgp) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "router bgp %d" b.asn;
  (match b.router_id with Some r -> line " bgp router-id %s" (Ipv4.to_string r) | None -> ());
  List.iter
    (fun n ->
      line " network %s mask %s"
        (Ipv4.to_string (Prefix.addr n))
        (Ipv4.to_string (Netmask.mask_of_len (Prefix.len n))))
    b.networks;
  List.iter
    (fun (n : Config_ir.neighbor) ->
      let addr = Ipv4.to_string n.addr in
      line " neighbor %s remote-as %d" addr n.remote_as;
      (match n.local_as with Some a -> line " neighbor %s local-as %d" addr a | None -> ());
      (match n.description with Some d -> line " neighbor %s description %s" addr d | None -> ());
      if n.send_community then line " neighbor %s send-community" addr;
      if n.next_hop_self then line " neighbor %s next-hop-self" addr;
      (match n.import_policy with
      | Some p -> line " neighbor %s route-map %s in" addr p
      | None -> ());
      match n.export_policy with
      | Some p -> line " neighbor %s route-map %s out" addr p
      | None -> ())
    b.neighbors;
  List.iter (fun r -> line "%s" (print_redistribution r)) b.redistributions;
  Buffer.contents buf

let print_ospf (o : Config_ir.ospf) =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "router ospf %d" o.process_id;
  (match o.router_id with Some r -> line " router-id %s" (Ipv4.to_string r) | None -> ());
  List.iter
    (fun (p, area) ->
      line " network %s %s area %d"
        (Ipv4.to_string (Prefix.addr p))
        (Ipv4.to_string (Netmask.wildcard_of_len (Prefix.len p)))
        area)
    o.networks;
  List.iter
    (fun (oi : Config_ir.ospf_interface) ->
      if oi.passive then line " passive-interface %s" (Iface.cisco_name oi.iface))
    o.interfaces;
  List.iter (fun r -> line "%s" (print_redistribution r)) o.redistributions;
  Buffer.contents buf

let print_statics statics =
  String.concat "\n"
    (List.map
       (fun (r : Config_ir.static_route) ->
         Printf.sprintf "ip route %s %s %s"
           (Ipv4.to_string (Prefix.addr r.Config_ir.destination))
           (Ipv4.to_string (Netmask.mask_of_len (Prefix.len r.Config_ir.destination)))
           (Ipv4.to_string r.Config_ir.next_hop))
       statics)

(* A config is printed as its top-level blocks, in this order. Each block
   carries exactly the IR it is printed from, so equal blocks print equal
   text; an interface carries its OSPF interface for the cost line. *)
type block =
  | Hostname of string
  | Interface of Config_ir.interface * Config_ir.ospf_interface option
  | Statics of Config_ir.static_route list
  | Acl of Acl.t
  | Prefix_list of Prefix_list.t
  | Community_list of Community_list.t
  | As_path_list of As_path_list.t
  | Route_map of Route_map.t
  | Bgp of Config_ir.bgp
  | Ospf of Config_ir.ospf

let blocks (c : Config_ir.t) =
  let ospf_iface (i : Config_ir.interface) =
    match c.ospf with
    | None -> None
    | Some o ->
        List.find_opt
          (fun (oi : Config_ir.ospf_interface) -> Iface.equal oi.iface i.iface)
          o.interfaces
  in
  let opt f = function Some x -> [ f x ] | None -> [] in
  (Hostname c.hostname :: List.map (fun i -> Interface (i, ospf_iface i)) c.interfaces)
  @ (match c.statics with [] -> [] | statics -> [ Statics statics ])
  @ List.map (fun a -> Acl a) c.acls
  @ List.map (fun l -> Prefix_list l) c.prefix_lists
  @ List.map (fun l -> Community_list l) c.community_lists
  @ List.map (fun l -> As_path_list l) c.as_path_lists
  @ List.map (fun m -> Route_map m) c.route_maps
  @ opt (fun b -> Bgp b) c.bgp
  @ opt (fun o -> Ospf o) c.ospf

(* The block's text, newline-terminated and followed by a "!" separator;
   a block that prints nothing (an empty list) is left out entirely. *)
let print_block block =
  let body =
    match block with
    | Hostname h -> "hostname " ^ h
    | Interface (i, oi) -> print_interface i oi
    | Statics statics -> print_statics statics
    | Acl a -> print_acl a
    | Prefix_list l -> print_prefix_list l
    | Community_list l -> print_community_list l
    | As_path_list l -> print_as_path_list l
    | Route_map m -> print_route_map m
    | Bgp b -> print_bgp b
    | Ospf o -> print_ospf o
  in
  if body = "" then ""
  else if body.[String.length body - 1] = '\n' then body ^ "!\n"
  else body ^ "\n!\n"

(* Keys are whole blocks: [Hashtbl.hash] samples a bounded part of a block,
   and the table's structural comparison settles collisions. That comparison
   stops at once on the IR values a redraft shares with earlier drafts, which
   are physically equal. *)
type cache = (block, string) Hashtbl.t

let create_cache () : cache = Hashtbl.create 256

let print ?cache c =
  let text block =
    match cache with
    | None -> print_block block
    | Some tbl -> (
        match Hashtbl.find_opt tbl block with
        | Some s -> s
        | None ->
            let s = print_block block in
            Hashtbl.add tbl block s;
            s)
  in
  String.concat "" (List.map text (blocks c))
