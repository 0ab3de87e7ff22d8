open Netcore
open Policy

let leaf ?(line = 0) keywords = { Ast.keywords; children = None; line }
let block ?(line = 0) keywords children = { Ast.keywords; children = Some children; line }

(* ------------------------------------------------------------------ *)
(* Prefix lists -> route-filter lines                                  *)
(* ------------------------------------------------------------------ *)

let is_exact_permit_list (l : Prefix_list.t) =
  List.for_all
    (fun (e : Prefix_list.entry) ->
      e.action = Action.Permit && Prefix_range.is_exact e.range)
    l.entries

let len_runs lens =
  let rec runs acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some r -> r :: acc)
    | n :: rest -> (
        match cur with
        | Some (lo, hi) when n = hi + 1 -> runs acc (Some (lo, n)) rest
        | Some r -> runs (r :: acc) (Some (n, n)) rest
        | None -> runs acc (Some (n, n)) rest)
  in
  runs [] None (Symbolic.Len_set.to_list lens)

let modifier_of_run ~base_len (lo, hi) =
  if lo = base_len && hi = base_len then "exact"
  else if lo = base_len && hi = 32 then "orlonger"
  else if lo = base_len then Printf.sprintf "upto /%d" hi
  else Printf.sprintf "prefix-length-range /%d-/%d" lo hi

let route_filters_of_prefix_list l =
  let space = Symbolic.Guard.compile_prefix_list l in
  List.concat_map
    (fun (a : Symbolic.Prefix_space.atom) ->
      let base_len = Prefix.len a.base in
      List.map
        (fun run -> (Prefix.to_string a.base, modifier_of_run ~base_len run))
        (len_runs a.lens))
    (Symbolic.Prefix_space.atoms space)

(* ------------------------------------------------------------------ *)
(* Community names                                                     *)
(* ------------------------------------------------------------------ *)

let community_def_name comms =
  "COMM-"
  ^ String.concat "-"
      (List.map
         (fun c ->
           let s = Community.to_string c in
           String.map (fun ch -> if ch = ':' then '-' else ch) s)
         comms)

(* ------------------------------------------------------------------ *)
(* Policy statements                                                   *)
(* ------------------------------------------------------------------ *)

(* A statement reads its route map and the lists it references, and names
   the community definitions its terms cite by calling [register]. *)
let from_lines ~prefix_lists ~community_lists register = function
  | Route_map.Match_prefix_list n -> (
      match List.find_opt (fun (l : Prefix_list.t) -> l.name = n) prefix_lists with
      | Some l when is_exact_permit_list l -> [ leaf [ "prefix-list"; n ] ]
      | Some l ->
          List.map
            (fun (p, m) ->
              leaf (("route-filter" :: p :: String.split_on_char ' ' m)))
            (route_filters_of_prefix_list l)
      | None -> [ leaf [ "prefix-list"; n ] ])
  | Route_map.Match_community_list n -> (
      match List.find_opt (fun (l : Community_list.t) -> l.name = n) community_lists with
      | Some l -> (
          match l.Community_list.entries with
          | [ e ] when e.Community_list.action = Action.Permit ->
              register n e.Community_list.communities;
              [ leaf [ "community"; n ] ]
          | entries ->
              (* OR across entries: one named community per entry, all cited
                 in a single bracketed from clause. *)
              let names =
                List.mapi
                  (fun i (e : Community_list.entry) ->
                    let name = Printf.sprintf "%s-%d" n (i + 1) in
                    register name e.Community_list.communities;
                    name)
                  entries
              in
              [ leaf ("community" :: names) ])
      | None -> [ leaf [ "community"; n ] ])
  | Route_map.Match_as_path n -> [ leaf [ "as-path"; n ] ]
  | Route_map.Match_source_protocol s ->
      [ leaf [ "protocol"; Route.source_to_string s ] ]
  | Route_map.Match_med m -> [ leaf [ "metric"; string_of_int m ] ]
  | Route_map.Match_tag t -> [ leaf [ "tag"; string_of_int t ] ]

let then_lines register (e : Route_map.entry) =
  let set_line = function
    | Route_map.Set_med m -> [ leaf [ "metric"; string_of_int m ] ]
    | Route_map.Set_local_pref p -> [ leaf [ "local-preference"; string_of_int p ] ]
    | Route_map.Set_community { communities; additive } ->
        let name = community_def_name communities in
        register name communities;
        [ leaf [ "community"; (if additive then "add" else "set"); name ] ]
    | Route_map.Set_community_delete n -> [ leaf [ "community"; "delete"; n ] ]
    | Route_map.Set_next_hop a -> [ leaf [ "next-hop"; Ipv4.to_string a ] ]
    | Route_map.Set_as_path_prepend asns ->
        [ leaf [ "as-path-prepend"; String.concat " " (List.map string_of_int asns) ] ]
  in
  List.concat_map set_line e.sets
  @ [ leaf [ (match e.action with Action.Permit -> "accept" | Action.Deny -> "reject") ] ]

(* The statement's node and the community definitions it registers, in
   registration order (a name may repeat). *)
let policy_statement ~prefix_lists ~community_lists (m : Route_map.t) =
  let registered = ref [] in
  let register name members = registered := (name, members) :: !registered in
  let term (e : Route_map.entry) =
    let froms = List.concat_map (from_lines ~prefix_lists ~community_lists register) e.matches in
    let body =
      (if froms = [] then [] else [ block [ "from" ] froms ])
      @ [ block [ "then" ] (then_lines register e) ]
    in
    block [ "term"; Printf.sprintf "t%d" e.seq ] body
  in
  let node = block [ "policy-statement"; m.name ] (List.map term m.entries) in
  (node, List.rev !registered)

(* ------------------------------------------------------------------ *)
(* Top-level sections                                                  *)
(* ------------------------------------------------------------------ *)

let firewall_section acls =
  if acls = [] then []
  else
    let term (e : Acl.entry) =
      let froms =
        (match e.Acl.proto with
        | Acl.Any_proto -> []
        | Acl.Proto p -> [ leaf [ "protocol"; Packet.proto_to_string p ] ])
        @ (if Prefix.equal e.Acl.src Prefix.default then []
           else [ leaf [ "source-address"; Prefix.to_string e.Acl.src ] ])
        @ (if Prefix.equal e.Acl.dst Prefix.default then []
           else [ leaf [ "destination-address"; Prefix.to_string e.Acl.dst ] ])
        @
        match e.Acl.dst_port with
        | Acl.Any_port -> []
        | Acl.Eq p -> [ leaf [ "destination-port"; string_of_int p ] ]
        | Acl.Port_range (lo, hi) ->
            [ leaf [ "destination-port"; Printf.sprintf "%d-%d" lo hi ] ]
      in
      let action =
        match e.Acl.action with Action.Permit -> "accept" | Action.Deny -> "discard"
      in
      block
        [ "term"; Printf.sprintf "t%d" e.Acl.seq ]
        ((if froms = [] then [] else [ block [ "from" ] froms ])
        @ [ block [ "then" ] [ leaf [ action ] ] ])
    in
    let filter (a : Acl.t) =
      block [ "filter"; a.Acl.name ] (List.map term a.Acl.entries)
    in
    [ block [ "firewall" ] [ block [ "family"; "inet" ] (List.map filter acls) ] ]

let interfaces_section (interfaces : Config_ir.interface list) =
  let iface_node (i : Config_ir.interface) =
    let phys = Iface.junos_name i.iface in
    let phys =
      match String.index_opt phys '.' with
      | Some idx -> String.sub phys 0 idx
      | None -> phys
    in
    let filter_attach =
      let ins = match i.acl_in with Some n -> [ leaf [ "input"; n ] ] | None -> [] in
      let outs = match i.acl_out with Some n -> [ leaf [ "output"; n ] ] | None -> [] in
      if ins = [] && outs = [] then [] else [ block [ "filter" ] (ins @ outs) ]
    in
    let family =
      let addr =
        match i.address with
        | Some (a, len) ->
            [ leaf [ "address"; Printf.sprintf "%s/%d" (Ipv4.to_string a) len ] ]
        | None -> []
      in
      if addr = [] && filter_attach = [] then []
      else [ block [ "family"; "inet" ] (filter_attach @ addr) ]
    in
    let unit = block [ "unit"; "0" ] family in
    let body =
      (match i.description with
      | Some d -> [ leaf [ "description"; d ] ]
      | None -> [])
      @ (if i.shutdown then [ leaf [ "disable" ] ] else [])
      @ [ unit ]
    in
    block [ phys ] body
  in
  if interfaces = [] then [] else [ block [ "interfaces" ] (List.map iface_node interfaces) ]

let routing_options_section statics (bgp : Config_ir.bgp option) =
  let statics =
    if statics = [] then []
    else
      [
        block [ "static" ]
          (List.map
             (fun (r : Config_ir.static_route) ->
               block
                 [ "route"; Prefix.to_string r.Config_ir.destination ]
                 [ leaf [ "next-hop"; Ipv4.to_string r.Config_ir.next_hop ] ])
             statics);
      ]
  in
  let body =
    statics
    @
    (match bgp with
    | Some b ->
        (match b.router_id with
        | Some r -> [ leaf [ "router-id"; Ipv4.to_string r ] ]
        | None -> [])
        @ (if b.asn > 0 then [ leaf [ "autonomous-system"; string_of_int b.asn ] ] else [])
        @
        if b.networks = [] then []
        else
          [
            block [ "announce" ]
              (List.map (fun p -> leaf [ Prefix.to_string p ]) b.networks);
          ]
    | None -> [])
  in
  if body = [] then [] else [ block [ "routing-options" ] body ]

let bgp_section (bgp : Config_ir.bgp option) =
  match bgp with
  | None -> []
  | Some b ->
      let group (n : Config_ir.neighbor) =
        let name =
          "PEER-"
          ^ String.map (fun ch -> if ch = '.' then '-' else ch) (Ipv4.to_string n.addr)
        in
        let neighbor_body =
          (if n.remote_as > 0 then [ leaf [ "peer-as"; string_of_int n.remote_as ] ] else [])
          @ (match n.local_as with
            | Some a -> [ leaf [ "local-as"; string_of_int a ] ]
            | None -> [])
          @ (match n.description with
            | Some d -> [ leaf [ "description"; d ] ]
            | None -> [])
          @ (match n.import_policy with
            | Some p -> [ leaf [ "import"; p ] ]
            | None -> [])
          @
          match n.export_policy with
          | Some p -> [ leaf [ "export"; p ] ]
          | None -> []
        in
        block [ "group"; name ]
          [
            leaf [ "type"; "external" ];
            block [ "neighbor"; Ipv4.to_string n.addr ] neighbor_body;
          ]
      in
      [ block [ "bgp" ] (List.map group b.neighbors) ]

let ospf_section (ospf : Config_ir.ospf option) =
  match ospf with
  | None -> []
  | Some o ->
      let areas =
        List.sort_uniq Int.compare
          (List.map (fun (oi : Config_ir.ospf_interface) -> oi.area) o.interfaces)
      in
      let area_node area =
        let ifaces =
          List.filter (fun (oi : Config_ir.ospf_interface) -> oi.area = area) o.interfaces
        in
        let iface_node (oi : Config_ir.ospf_interface) =
          let body =
            (match oi.cost with
            | Some m -> [ leaf [ "metric"; string_of_int m ] ]
            | None -> [])
            @ if oi.passive then [ leaf [ "passive" ] ] else []
          in
          block [ "interface"; Iface.junos_name oi.iface ] body
        in
        block [ "area"; Printf.sprintf "0.0.0.%d" area ] (List.map iface_node ifaces)
      in
      if areas = [] then [] else [ block [ "ospf" ] (List.map area_node areas) ]

(* The definitions a statement cites come before the statements: the
   exact-permit prefix lists, the registered communities, the AS-path
   lists. *)
let definitions prefix_lists communities as_path_lists =
  let prefix_lists =
    List.filter_map
      (fun (l : Prefix_list.t) ->
        if is_exact_permit_list l then
          Some
            (block [ "prefix-list"; l.name ]
               (List.map
                  (fun (e : Prefix_list.entry) ->
                    leaf [ Prefix.to_string (Prefix_range.base e.range) ])
                  l.entries))
        else None)
      prefix_lists
  in
  let communities =
    List.map
      (fun (name, members) ->
        leaf
          (("community" :: name :: "members"
           :: List.map Community.to_string members)))
      communities
  in
  let as_paths =
    List.concat_map
      (fun (l : As_path_list.t) ->
        match
          List.find_opt (fun (e : As_path_list.entry) -> e.action = Action.Permit) l.entries
        with
        | Some e -> [ leaf [ "as-path"; l.name; e.regex ] ]
        | None -> [])
      as_path_lists
  in
  prefix_lists @ communities @ as_paths

(* ------------------------------------------------------------------ *)
(* Sections and the cache                                              *)
(* ------------------------------------------------------------------ *)

(* A config is printed as these sections, each carrying exactly the IR it
   is printed from, so equal sections print equal text. The six top-level
   sections print at the left margin; a statement and the definitions print
   inside [policy-options], one level in. A statement carries its route map
   and the prefix and community lists it references; the definitions carry
   the communities the statements registered. *)
type section =
  | System of string
  | Interfaces of Config_ir.interface list
  | Routing_options of Config_ir.static_route list * Config_ir.bgp option
  | Firewall of Acl.t list
  | Protocols of Config_ir.bgp option * Config_ir.ospf option
  | Statement of Route_map.t * Prefix_list.t list * Community_list.t list
  | Definitions of
      Prefix_list.t list * (string * Community.t list) list * As_path_list.t list

(* The section's text, and for a statement the community definitions it
   registers. *)
let print_section = function
  | System hostname -> (Ast.render [ block [ "system" ] [ leaf [ "host-name"; hostname ] ] ], [])
  | Interfaces interfaces -> (Ast.render (interfaces_section interfaces), [])
  | Routing_options (statics, bgp) -> (Ast.render (routing_options_section statics bgp), [])
  | Firewall acls -> (Ast.render (firewall_section acls), [])
  | Protocols (bgp, ospf) ->
      let body = bgp_section bgp @ ospf_section ospf in
      (Ast.render (if body = [] then [] else [ block [ "protocols" ] body ]), [])
  | Statement (m, prefix_lists, community_lists) ->
      let node, registered = policy_statement ~prefix_lists ~community_lists m in
      (Ast.render ~indent:4 [ node ], registered)
  | Definitions (prefix_lists, communities, as_path_lists) ->
      (Ast.render ~indent:4 (definitions prefix_lists communities as_path_lists), [])

(* Keys are whole sections, as in [Cisco.Printer]: the table's structural
   comparison settles what [Hashtbl.hash] leaves apart, and stops at once on
   the IR values a redraft shares with earlier drafts. *)
type cache = (section, string * (string * Community.t list) list) Hashtbl.t

let create_cache () : cache = Hashtbl.create 64

(* The lists a statement reads: the first of each name it references, as
   [Config_ir.find_*] would return. *)
let statement (c : Config_ir.t) (m : Route_map.t) =
  let refs = Route_map.list_references m in
  let found kind find =
    List.filter_map (fun (k, n) -> if k = kind then find c n else None) refs
  in
  Statement
    ( m,
      found `Prefix_list Config_ir.find_prefix_list,
      found `Community_list Config_ir.find_community_list )

(* Named community lists cited in delete actions are defined before any
   community a statement registers. *)
let delete_lists (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.concat_map
        (fun (e : Route_map.entry) ->
          List.filter_map
            (function
              | Route_map.Set_community_delete n -> (
                  match Config_ir.find_community_list c n with
                  | Some { Community_list.entries = { Community_list.communities; _ } :: _; _ } ->
                      Some (n, communities)
                  | _ -> None)
              | _ -> None)
            e.Route_map.sets)
        m.Route_map.entries)
    c.route_maps

(* Each name once, with the members of its first registration. *)
let first_registrations defs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (name, _) ->
      (not (Hashtbl.mem seen name))
      &&
      (Hashtbl.add seen name ();
       true))
    defs

let print ?cache (c : Config_ir.t) =
  let text section =
    match cache with
    | None -> print_section section
    | Some tbl -> (
        match Hashtbl.find_opt tbl section with
        | Some printed -> printed
        | None ->
            let printed = print_section section in
            Hashtbl.add tbl section printed;
            printed)
  in
  let statements = List.map (fun m -> text (statement c m)) c.route_maps in
  let communities =
    first_registrations (delete_lists c @ List.concat_map snd statements)
  in
  let definitions, _ =
    text (Definitions (c.prefix_lists, communities, c.as_path_lists))
  in
  let policy =
    if definitions = "" && statements = [] then []
    else ("policy-options {\n" :: definitions :: List.map fst statements) @ [ "}\n" ]
  in
  let dropped =
    match c.bgp with
    | Some b when b.redistributions <> [] ->
        "# note: redistributions are not expressible in this dialect; fold them \
         into export policies with Translate.of_cisco_ir\n"
    | _ -> ""
  in
  String.concat ""
    (dropped
    :: List.map
         (fun s -> fst (text s))
         [
           System c.hostname;
           Interfaces c.interfaces;
           Routing_options (c.statics, c.bgp);
           Firewall c.acls;
           Protocols (c.bgp, c.ospf);
         ]
    @ policy)
