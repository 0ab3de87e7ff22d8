open Netcore
open Policy

(* Parsing state: the line loop assembles a text into mutable
   accumulators, freezes them into an immutable [Piece.t], and [assemble]
   builds the Config_ir.t from that. A context tracks which block
   ("interface", "router bgp", ...) indented lines belong to.

   Every accumulator is a list built by consing (so it is reversed until
   [assemble]) or a hash table, and every line does O(1) work on them
   outside the tokenizer: parsing is linear in the input size. Entries that
   later lines edit (interfaces, neighbors, route-map stanzas, OSPF
   interfaces) sit behind mutable cells, found through a table keyed the
   way the IR identifies them. *)

(* A route-map stanza while it is open; [matches] and [sets] reversed. *)
type stanza = {
  seq : int;
  action : Action.t;
  mutable matches : Route_map.match_cond list;
  mutable sets : Route_map.set_action list;
}

type state = {
  mutable hostname : string option;  (* the last [hostname] line *)
  mutable interfaces : Config_ir.interface ref list;  (* reversed *)
  iface_index : (Iface.t, Config_ir.interface ref) Hashtbl.t;
      (* every cell for an interface name: a repeated [interface X] block
         adds a second entry, and later lines edit both, as the IR keeps
         them *)
  mutable pl_entries : (string * Prefix_list.entry) list;  (* reversed *)
  mutable cl_entries : (string * Community_list.entry) list;  (* reversed *)
  mutable al_entries : (string * As_path_list.entry) list;  (* reversed *)
  mutable rm_stanzas : (string * stanza) list;  (* reversed, by first appearance *)
  rm_seen : (string * int, unit) Hashtbl.t;  (* (name, seq) of every stanza *)
  mutable acl_entries : (string * Acl.entry) list;  (* reversed *)
  acl_counts : (string, int) Hashtbl.t;  (* entries so far per ACL, for [seq] *)
  mutable statics : Config_ir.static_route list;  (* reversed *)
  mutable bgp : Config_ir.bgp option;
      (* asn and router id only; its lists are the [bgp_*] fields *)
  mutable bgp_networks : Prefix.t list;  (* reversed *)
  mutable bgp_neighbors : Config_ir.neighbor ref list;  (* reversed *)
  neighbor_index : (Ipv4.t, Config_ir.neighbor ref) Hashtbl.t;
  mutable bgp_redistributions : Config_ir.redistribution list;  (* reversed *)
  mutable ospf : Config_ir.ospf option;
      (* process id and router id only; its lists are the [ospf_*] fields *)
  mutable ospf_networks : (Prefix.t * int) list;  (* reversed *)
  ospf_interfaces : (Iface.t, Config_ir.ospf_interface) Hashtbl.t;
  mutable ospf_redistributions : Config_ir.redistribution list;  (* reversed *)
  mutable ospf_costs : (Iface.t * int) list;  (* from interface blocks, reversed *)
  mutable diags : Diag.t list;  (* reversed *)
}

type context =
  | Top
  | In_interface of Iface.t
  | In_bgp
  | In_ospf
  | In_route_map of stanza
  | In_acl of string

let fresh () =
  {
    hostname = None;
    interfaces = [];
    iface_index = Hashtbl.create 16;
    pl_entries = [];
    cl_entries = [];
    al_entries = [];
    rm_stanzas = [];
    rm_seen = Hashtbl.create 64;
    acl_entries = [];
    acl_counts = Hashtbl.create 8;
    statics = [];
    bgp = None;
    bgp_networks = [];
    bgp_neighbors = [];
    neighbor_index = Hashtbl.create 16;
    bgp_redistributions = [];
    ospf = None;
    ospf_networks = [];
    ospf_interfaces = Hashtbl.create 8;
    ospf_redistributions = [];
    ospf_costs = [];
    diags = [];
  }

let warn st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.warning ~line s :: st.diags) fmt
let err st ~line fmt = Printf.ksprintf (fun s -> st.diags <- Diag.error ~line s :: st.diags) fmt

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* The CLI keywords the paper's IIP bans: they belong to an interactive
   session, not a .cfg file. *)
let cli_keywords =
  [ "exit"; "end"; "configure"; "conf"; "write"; "enable"; "copy"; "show" ]

let is_cli_keyword = function
  | [] -> false
  | w :: _ -> List.mem (String.lowercase_ascii w) cli_keywords

(* ------------------------------------------------------------------ *)
(* Field updates                                                       *)
(* ------------------------------------------------------------------ *)

(* A repeated [router bgp] / [router ospf] header re-enters the first
   process. *)
let ensure_bgp st asn =
  if st.bgp = None then
    st.bgp <-
      Some
        { Config_ir.asn; router_id = None; networks = []; neighbors = []; redistributions = [] }

let ensure_ospf st pid =
  if st.ospf = None then
    st.ospf <-
      Some
        {
          Config_ir.process_id = pid;
          router_id = None;
          networks = [];
          interfaces = [];
          redistributions = [];
        }

let update_bgp st f = match st.bgp with Some b -> st.bgp <- Some (f b) | None -> ()
let update_ospf st f = match st.ospf with Some o -> st.ospf <- Some (f o) | None -> ()

let update_interface st iface f =
  List.iter (fun cell -> cell := f !cell) (Hashtbl.find_all st.iface_index iface)

(* The first statement about a neighbor creates it, in first-mention order. *)
let update_neighbor st addr f =
  match Hashtbl.find_opt st.neighbor_index addr with
  | Some cell -> cell := f !cell
  | None ->
      let cell = ref (f (Config_ir.neighbor addr ~remote_as:(-1) ~send_community:false)) in
      Hashtbl.add st.neighbor_index addr cell;
      st.bgp_neighbors <- cell :: st.bgp_neighbors

(* ------------------------------------------------------------------ *)
(* Line handlers                                                       *)
(* ------------------------------------------------------------------ *)

let parse_source_protocol = function
  | "bgp" -> Some Route.Bgp
  | "ospf" -> Some Route.Ospf
  | "connected" -> Some Route.Connected
  | "static" -> Some Route.Static
  | _ -> None

let parse_redistribute st ~line rest =
  (* redistribute <proto> [<pid>] [route-map NAME] *)
  let proto, rest =
    match rest with
    | p :: tl -> (parse_source_protocol p, tl)
    | [] -> (None, [])
  in
  match proto with
  | None ->
      warn st ~line "unsupported redistribute source protocol";
      None
  | Some proto -> (
      let rest = match rest with pid :: tl when int_of_string_opt pid <> None -> tl | l -> l in
      match rest with
      | [] -> Some { Config_ir.from_protocol = proto; policy = None }
      | [ "route-map"; name ] -> Some { Config_ir.from_protocol = proto; policy = Some name }
      | _ ->
          warn st ~line "malformed redistribute statement";
          None)

let handle_interface_line st ~line iface toks =
  let set f = update_interface st iface f in
  match toks with
  | [ "ip"; "address"; a; m ] -> (
      match (Ipv4.of_string a, Ipv4.of_string m) with
      | Some addr, Some mask -> (
          match Netmask.len_of_mask mask with
          | Some len -> set (fun i -> { i with Config_ir.address = Some (addr, len) })
          | None -> err st ~line "'%s' is not a contiguous netmask" m)
      | _ -> err st ~line "malformed ip address statement")
  | "description" :: rest ->
      let d = String.concat " " rest in
      set (fun i -> { i with Config_ir.description = Some d })
  | [ "shutdown" ] -> set (fun i -> { i with Config_ir.shutdown = true })
  | [ "no"; "shutdown" ] -> ()
  | [ "ip"; "access-group"; name; dir ] -> (
      match dir with
      | "in" -> set (fun i -> { i with Config_ir.acl_in = Some name })
      | "out" -> set (fun i -> { i with Config_ir.acl_out = Some name })
      | _ -> err st ~line "access-group direction must be 'in' or 'out'")
  | [ "ip"; "ospf"; "cost"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 0 -> st.ospf_costs <- (iface, c) :: st.ospf_costs
      | _ -> err st ~line "invalid ospf cost")
  | _ ->
      err st ~line "unrecognized interface statement: '%s'" (String.concat " " toks)

let handle_bgp_line st ~line toks =
  match toks with
  | [ "bgp"; "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> update_bgp st (fun b -> { b with Config_ir.router_id = Some rid })
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; "mask"; m ] -> (
      match (Ipv4.of_string a, Option.bind (Ipv4.of_string m) Netmask.len_of_mask) with
      | Some addr, Some len -> st.bgp_networks <- Prefix.make addr len :: st.bgp_networks
      | _ -> err st ~line "malformed network statement")
  | [ "network"; a ] -> (
      match Ipv4.of_string a with
      | Some addr ->
          let len = Netmask.classful_len addr in
          warn st ~line
            "network statement without mask: assuming classful /%d for %s" len a;
          st.bgp_networks <- Prefix.make addr len :: st.bgp_networks
      | None -> err st ~line "malformed network statement")
  | "neighbor" :: addr :: rest -> (
      match Ipv4.of_string addr with
      | None -> err st ~line "invalid neighbor address '%s'" addr
      | Some addr -> (
          match rest with
          | [ "remote-as"; asn ] -> (
              match int_of_string_opt asn with
              | Some asn when asn > 0 ->
                  update_neighbor st addr (fun n -> { n with Config_ir.remote_as = asn })
              | _ -> err st ~line "invalid remote AS number")
          | [ "local-as"; asn ] -> (
              match int_of_string_opt asn with
              | Some asn when asn > 0 ->
                  update_neighbor st addr (fun n -> { n with Config_ir.local_as = Some asn })
              | _ -> err st ~line "invalid local AS number")
          | "description" :: d ->
              let d = String.concat " " d in
              update_neighbor st addr (fun n -> { n with Config_ir.description = Some d })
          | [ "send-community" ] ->
              update_neighbor st addr (fun n -> { n with Config_ir.send_community = true })
          | [ "next-hop-self" ] ->
              update_neighbor st addr (fun n -> { n with Config_ir.next_hop_self = true })
          | [ "route-map"; name; "in" ] ->
              update_neighbor st addr (fun n -> { n with Config_ir.import_policy = Some name })
          | [ "route-map"; name; "out" ] ->
              update_neighbor st addr (fun n -> { n with Config_ir.export_policy = Some name })
          | _ ->
              err st ~line "unrecognized neighbor statement: '%s'" (String.concat " " rest)))
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r -> st.bgp_redistributions <- r :: st.bgp_redistributions
      | None -> ())
  | [ "no"; "auto-summary" ] | [ "no"; "synchronization" ] -> ()
  | _ -> err st ~line "unrecognized router bgp statement: '%s'" (String.concat " " toks)

(* OSPF interfaces are keyed by name; [assemble] sorts them. *)
let set_ospf_iface table iface f =
  let oi =
    match Hashtbl.find_opt table iface with
    | Some oi -> oi
    | None -> { Config_ir.iface; cost = None; passive = false; area = 0 }
  in
  Hashtbl.replace table iface (f oi)

let handle_ospf_line st ~line toks =
  match toks with
  | [ "router-id"; r ] -> (
      match Ipv4.of_string r with
      | Some rid -> update_ospf st (fun o -> { o with Config_ir.router_id = Some rid })
      | None -> err st ~line "invalid router id '%s'" r)
  | [ "network"; a; w; "area"; area ] -> (
      match
        ( Ipv4.of_string a,
          Option.bind (Ipv4.of_string w) Netmask.len_of_wildcard,
          int_of_string_opt area )
      with
      | Some addr, Some len, Some area ->
          st.ospf_networks <- (Prefix.make addr len, area) :: st.ospf_networks
      | _ -> err st ~line "malformed ospf network statement")
  | [ "passive-interface"; ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface ->
          set_ospf_iface st.ospf_interfaces iface (fun oi -> { oi with Config_ir.passive = true })
      | None -> err st ~line "unknown interface '%s'" ifname)
  | "redistribute" :: rest -> (
      match parse_redistribute st ~line rest with
      | Some r -> st.ospf_redistributions <- r :: st.ospf_redistributions
      | None -> ())
  | _ -> err st ~line "unrecognized router ospf statement: '%s'" (String.concat " " toks)

let handle_route_map_line st ~line stanza toks =
  let add_match m = stanza.matches <- m :: stanza.matches in
  let add_set s = stanza.sets <- s :: stanza.sets in
  match toks with
  | [ "match"; "ip"; "address"; "prefix-list"; name ] ->
      add_match (Route_map.Match_prefix_list name)
  | "match" :: "ip" :: "address" :: "prefix-list" :: _ ->
      err st ~line "only one prefix-list per match line is supported"
  | [ "match"; "community"; arg ] -> (
      (* The notorious GPT-4 mistake: a literal community where a
         community-list reference is required. *)
      match Community.of_string arg with
      | Some _ ->
          err st ~line
            "'match community %s' is invalid: 'match community' takes a \
             community-list; define 'ip community-list standard <name> permit \
             %s' and match the list by name"
            arg arg
      | None -> add_match (Route_map.Match_community_list arg))
  | "match" :: "community" :: _ ->
      err st ~line "only one community-list per match line is supported"
  | [ "match"; "as-path"; name ] -> add_match (Route_map.Match_as_path name)
  | [ "match"; "source-protocol"; p ] -> (
      match parse_source_protocol p with
      | Some s -> add_match (Route_map.Match_source_protocol s)
      | None -> err st ~line "unknown source protocol '%s'" p)
  | [ "match"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_match (Route_map.Match_med m)
      | None -> err st ~line "invalid metric")
  | [ "match"; "tag"; t ] -> (
      match int_of_string_opt t with
      | Some t -> add_match (Route_map.Match_tag t)
      | None -> err st ~line "invalid tag")
  | [ "set"; "metric"; m ] -> (
      match int_of_string_opt m with
      | Some m -> add_set (Route_map.Set_med m)
      | None -> err st ~line "invalid metric")
  | [ "set"; "local-preference"; p ] -> (
      match int_of_string_opt p with
      | Some p -> add_set (Route_map.Set_local_pref p)
      | None -> err st ~line "invalid local-preference")
  | "set" :: "community" :: rest -> (
      let additive, comm_toks =
        match List.rev rest with
        | "additive" :: tl -> (true, List.rev tl)
        | _ -> (false, rest)
      in
      let comms = List.map Community.of_string comm_toks in
      match (comm_toks, List.for_all Option.is_some comms) with
      | [], _ -> err st ~line "set community requires at least one community"
      | _, false -> err st ~line "invalid community value in set community"
      | _, true ->
          add_set
            (Route_map.Set_community
               { communities = List.filter_map Fun.id comms; additive }))
  | [ "set"; "comm-list"; name; "delete" ] -> add_set (Route_map.Set_community_delete name)
  | [ "set"; "ip"; "next-hop"; a ] -> (
      match Ipv4.of_string a with
      | Some a -> add_set (Route_map.Set_next_hop a)
      | None -> err st ~line "invalid next-hop address")
  | "set" :: "as-path" :: "prepend" :: asns -> (
      let parsed = List.map int_of_string_opt asns in
      match (asns, List.for_all Option.is_some parsed) with
      | [], _ -> err st ~line "as-path prepend requires at least one AS"
      | _, false -> err st ~line "invalid AS number in prepend"
      | _, true -> add_set (Route_map.Set_as_path_prepend (List.filter_map Fun.id parsed)))
  | _ ->
      err st ~line "unrecognized route-map statement: '%s'" (String.concat " " toks)

let parse_addr_spec st ~line toks =
  (* any | host A | A WILDCARD; returns the prefix and remaining tokens. *)
  match toks with
  | "any" :: rest -> Some (Prefix.default, rest)
  | "host" :: a :: rest -> (
      match Ipv4.of_string a with
      | Some a -> Some (Prefix.host a, rest)
      | None ->
          err st ~line "invalid host address '%s'" a;
          None)
  | a :: w :: rest -> (
      match (Ipv4.of_string a, Option.bind (Ipv4.of_string w) Netmask.len_of_wildcard) with
      | Some a, Some len -> Some (Prefix.make a len, rest)
      | _ ->
          err st ~line "invalid address/wildcard pair '%s %s'" a w;
          None)
  | _ ->
      err st ~line "missing address specification";
      None

let handle_acl_line st ~line name toks =
  let count = Option.value (Hashtbl.find_opt st.acl_counts name) ~default:0 in
  let add entry =
    Hashtbl.replace st.acl_counts name (count + 1);
    st.acl_entries <- (name, entry) :: st.acl_entries
  in
  match toks with
  | action :: proto :: rest -> (
      match Action.of_string action with
      | None -> err st ~line "access-list entries start with permit or deny"
      | Some action -> (
          let proto_match =
            if proto = "ip" then Some Acl.Any_proto
            else Option.map (fun p -> Acl.Proto p) (Packet.proto_of_string proto)
          in
          match proto_match with
          | None -> err st ~line "unknown protocol '%s'" proto
          | Some proto -> (
              match parse_addr_spec st ~line rest with
              | None -> ()
              | Some (src, rest) -> (
                  match parse_addr_spec st ~line rest with
                  | None -> ()
                  | Some (dst, rest) -> (
                      let seq = (count + 1) * 10 in
                      match rest with
                      | [] -> add (Acl.entry ~action ~proto ~src ~dst seq)
                      | [ "eq"; port ] -> (
                          match int_of_string_opt port with
                          | Some p when p >= 0 && p <= 65535 ->
                              add (Acl.entry ~action ~proto ~src ~dst ~dst_port:(Acl.Eq p) seq)
                          | _ -> err st ~line "invalid port '%s'" port)
                      | [ "range"; lo; hi ] -> (
                          match (int_of_string_opt lo, int_of_string_opt hi) with
                          | Some lo, Some hi when 0 <= lo && lo <= hi && hi <= 65535 ->
                              add
                                (Acl.entry ~action ~proto ~src ~dst
                                   ~dst_port:(Acl.Port_range (lo, hi)) seq)
                          | _ -> err st ~line "invalid port range")
                      | _ ->
                          err st ~line "unrecognized access-list entry suffix: '%s'"
                            (String.concat " " rest))))))
  | _ -> err st ~line "malformed access-list entry"

(* ------------------------------------------------------------------ *)
(* Top-level dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let handle_prefix_list st ~line toks =
  (* ip prefix-list NAME seq N permit|deny P [ge G] [le L] *)
  match toks with
  | name :: "seq" :: seq :: action :: prefix :: bounds -> (
      match (int_of_string_opt seq, Action.of_string action, Prefix.of_string prefix) with
      | Some seq, Some action, Some base -> (
          let range =
            match bounds with
            | [] -> Some (Prefix_range.exact base)
            | [ "ge"; g ] ->
                Option.bind (int_of_string_opt g) (fun g ->
                    if g >= Prefix.len base && g <= 32 then Some (Prefix_range.ge base g)
                    else None)
            | [ "le"; l ] ->
                Option.bind (int_of_string_opt l) (fun l ->
                    if l >= Prefix.len base && l <= 32 then Some (Prefix_range.le base l)
                    else None)
            | [ "ge"; g; "le"; l ] -> (
                match (int_of_string_opt g, int_of_string_opt l) with
                | Some g, Some l when Prefix.len base <= g && g <= l && l <= 32 ->
                    Some (Prefix_range.make base ~ge:g ~le:l)
                | _ -> None)
            | _ -> None
          in
          match range with
          | Some range ->
              st.pl_entries <- (name, Prefix_list.entry ~action seq range) :: st.pl_entries
          | None -> err st ~line "invalid prefix-list bounds")
      | _ -> err st ~line "malformed ip prefix-list statement")
  | name :: action :: prefix :: _
    when Action.of_string action <> None && Prefix.of_string prefix <> None ->
      err st ~line
        "ip prefix-list %s: missing 'seq <n>' before the action" name
  | _ -> err st ~line "malformed ip prefix-list statement"

let looks_like_regex s =
  String.exists (fun c -> List.mem c [ '.'; '*'; '+'; '['; '^'; '$'; '_' ]) s

let handle_community_list st ~line toks =
  (* ip community-list standard NAME permit c1 c2... (also numbered lists) *)
  let parse name action comms =
    match Action.of_string action with
    | None -> err st ~line "malformed ip community-list statement"
    | Some action -> (
        let parsed = List.map Community.of_string comms in
        match (comms, List.for_all Option.is_some parsed) with
        | [], _ -> err st ~line "community-list entry needs at least one community"
        | _, false ->
            if List.exists looks_like_regex comms then
              err st ~line
                "'ip community-list standard %s %s %s' is wrong syntax: standard \
                 community lists take literal communities (asn:value), not regular \
                 expressions; use an expanded community list for regex matching"
                name (Action.to_string action) (String.concat " " comms)
            else err st ~line "invalid community value in community-list"
        | _, true ->
            st.cl_entries <-
              (name, Community_list.entry ~action (List.filter_map Fun.id parsed))
              :: st.cl_entries)
  in
  match toks with
  | "standard" :: name :: action :: comms -> parse name action comms
  | "expanded" :: name :: _ ->
      err st ~line "expanded community-list %s: regex community lists are not supported" name
  | name :: action :: comms when Action.of_string action <> None -> parse name action comms
  | _ -> err st ~line "malformed ip community-list statement"

let handle_as_path_list st ~line toks =
  (* ip as-path access-list NAME permit REGEX *)
  match toks with
  | name :: action :: regex_parts when regex_parts <> [] -> (
      match Action.of_string action with
      | Some action ->
          let regex = String.concat " " regex_parts in
          st.al_entries <- (name, As_path_list.entry ~action regex) :: st.al_entries
      | None -> err st ~line "malformed as-path access-list statement")
  | _ -> err st ~line "malformed as-path access-list statement"

let dispatch_top st ~line toks : context =
  match toks with
  | [] -> Top
  | [ "hostname"; h ] ->
      st.hostname <- Some h;
      Top
  | "interface" :: [ ifname ] -> (
      match Iface.of_cisco ifname with
      | Some iface ->
          let cell = ref (Config_ir.interface iface) in
          Hashtbl.add st.iface_index iface cell;
          st.interfaces <- cell :: st.interfaces;
          In_interface iface
      | None ->
          err st ~line "unknown interface name '%s'" ifname;
          Top)
  | [ "router"; "bgp"; asn ] -> (
      match int_of_string_opt asn with
      | Some asn when asn > 0 ->
          ensure_bgp st asn;
          In_bgp
      | _ ->
          err st ~line "invalid BGP AS number '%s'" asn;
          Top)
  | [ "router"; "ospf"; pid ] -> (
      match int_of_string_opt pid with
      | Some pid when pid > 0 ->
          ensure_ospf st pid;
          In_ospf
      | _ ->
          err st ~line "invalid OSPF process id '%s'" pid;
          Top)
  | [ "ip"; "access-list"; "extended"; name ] -> In_acl name
  | [ "ip"; "access-list"; "standard"; name ] ->
      err st ~line
        "standard access-list %s: only extended access lists are supported" name;
      Top
  | [ "ip"; "route"; dest; mask; nh ] ->
      (match
         ( Ipv4.of_string dest,
           Option.bind (Ipv4.of_string mask) Netmask.len_of_mask,
           Ipv4.of_string nh )
       with
      | Some dest, Some len, Some next_hop ->
          st.statics <- { Config_ir.destination = Prefix.make dest len; next_hop } :: st.statics
      | _ -> err st ~line "malformed ip route statement");
      Top
  | "ip" :: "prefix-list" :: rest ->
      handle_prefix_list st ~line rest;
      Top
  | "ip" :: "community-list" :: rest ->
      handle_community_list st ~line rest;
      Top
  | "ip" :: "as-path" :: "access-list" :: rest ->
      handle_as_path_list st ~line rest;
      Top
  | [ "route-map"; name; action; seq ] -> (
      match (Action.of_string action, int_of_string_opt seq) with
      | Some action, Some seq ->
          if Hashtbl.mem st.rm_seen (name, seq) then (
            err st ~line "duplicate route-map stanza %s %d" name seq;
            Top)
          else
            let stanza = { seq; action; matches = []; sets = [] } in
            Hashtbl.add st.rm_seen (name, seq) ();
            st.rm_stanzas <- (name, stanza) :: st.rm_stanzas;
            In_route_map stanza
      | _ ->
          err st ~line "malformed route-map header";
          Top)
  | [ "route-map"; name ] | [ "route-map"; name; _ ] ->
      err st ~line "route-map %s: header needs an action (permit|deny) and a sequence number" name;
      Top
  | [ "ip"; "routing" ] | [ "ip"; "subnet-zero" ] | [ "ip"; "classless" ] ->
      warn st ~line "'%s' is not needed in this configuration" (String.concat " " toks);
      Top
  | "neighbor" :: _ | "network" :: _ ->
      err st ~line
        "'%s' is only valid inside a 'router bgp' or 'router ospf' block; move it \
         under the routing process"
        (String.concat " " toks);
      Top
  | ("match" | "set") :: _ ->
      err st ~line "'%s' is only valid inside a route-map stanza" (String.concat " " toks);
      Top
  | _ when is_cli_keyword toks ->
      err st ~line
        "'%s' is an interactive CLI command, not a configuration statement; remove it"
        (String.concat " " toks);
      Top
  | _ ->
      err st ~line "unrecognized statement: '%s'" (String.concat " " toks);
      Top

(* ------------------------------------------------------------------ *)
(* The line loop                                                       *)
(* ------------------------------------------------------------------ *)

(* A piece of text once parsed, frozen: the accumulators with no mutable
   cell left (so one value can be shared across runs and domains), lists
   still reversed, and diagnostics numbered from the piece's first line.
   [shared] and [stanzas] name the state a piece shares with the rest of
   its text. *)
module Piece = struct
  type shared = Interface of Iface.t | Acl of string | Bgp | Ospf

  type t = {
    hostname : string option;  (* the last [hostname] line *)
    interfaces : Config_ir.interface list;
    pl_entries : (string * Prefix_list.entry) list;
    cl_entries : (string * Community_list.entry) list;
    al_entries : (string * As_path_list.entry) list;
    rm_entries : (string * Route_map.entry) list;
    acl_entries : (string * Acl.entry) list;
    statics : Config_ir.static_route list;
    bgp : Config_ir.bgp option;
    bgp_networks : Prefix.t list;
    bgp_neighbors : Config_ir.neighbor list;
    bgp_redistributions : Config_ir.redistribution list;
    ospf : Config_ir.ospf option;
    ospf_networks : (Prefix.t * int) list;
    ospf_interfaces : Config_ir.ospf_interface list;  (* any order *)
    ospf_redistributions : Config_ir.redistribution list;
    ospf_costs : (Iface.t * int) list;
    diags : Diag.t list;
    newlines : int;  (* in the text; the next piece starts on line [newlines + 1] *)
    shared : shared list;
        (* each opened interface, each ACL given entries, a BGP or OSPF
           process: at most once each. Neighbors are only edited inside a
           [router bgp] block, so [Bgp] covers them. *)
    stanzas : (string * int list) list;
        (* each route map's stanza sequence numbers, one entry per map *)
  }
end

let freeze st ~newlines : Piece.t =
  let stanzas =
    Hashtbl.fold (fun key () acc -> key :: acc) st.rm_seen []
    |> List.sort compare
    |> List.fold_left
         (fun acc (name, seq) ->
           match acc with
           | (n, seqs) :: rest when n = name -> (n, seq :: seqs) :: rest
           | _ -> (name, [ seq ]) :: acc)
         []
  in
  let interfaces = List.map ( ! ) st.interfaces in
  let shared =
    List.sort_uniq compare
      (List.map (fun (i : Config_ir.interface) -> Piece.Interface i.iface) interfaces)
    @ Hashtbl.fold (fun name _ acc -> Piece.Acl name :: acc) st.acl_counts []
    @ (if Option.is_some st.bgp then [ Piece.Bgp ] else [])
    @ if Option.is_some st.ospf then [ Piece.Ospf ] else []
  in
  {
    Piece.hostname = st.hostname;
    interfaces;
    pl_entries = st.pl_entries;
    cl_entries = st.cl_entries;
    al_entries = st.al_entries;
    rm_entries =
      List.map
        (fun (name, s) ->
          ( name,
            Route_map.entry ~action:s.action ~matches:(List.rev s.matches)
              ~sets:(List.rev s.sets) s.seq ))
        st.rm_stanzas;
    acl_entries = st.acl_entries;
    statics = st.statics;
    bgp = st.bgp;
    bgp_networks = st.bgp_networks;
    bgp_neighbors = List.map ( ! ) st.bgp_neighbors;
    bgp_redistributions = st.bgp_redistributions;
    ospf = st.ospf;
    ospf_networks = st.ospf_networks;
    ospf_interfaces = Hashtbl.fold (fun _ oi acc -> oi :: acc) st.ospf_interfaces [];
    ospf_redistributions = st.ospf_redistributions;
    ospf_costs = st.ospf_costs;
    diags = st.diags;
    newlines;
    shared;
    stanzas;
  }

(* The one place a line gets its meaning. A line whose trimmed form starts
   with '!' returns to top-level context. *)
let parse_lines text =
  let st = fresh () in
  let ctx = ref Top in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let trimmed = String.trim raw in
      let indented =
        String.length raw > 0 && (raw.[0] = ' ' || raw.[0] = '\t') && trimmed <> ""
      in
      if trimmed = "" then ()
      else if trimmed.[0] = '!' then ctx := Top
      else
        let toks = tokens trimmed in
        match (!ctx, indented) with
        | _, false ->
            (* A flush-left line always re-enters top-level dispatch. *)
            ctx := dispatch_top st ~line toks
        | Top, true -> ctx := dispatch_top st ~line toks
        | In_interface iface, true -> handle_interface_line st ~line iface toks
        | In_bgp, true ->
            if is_cli_keyword toks then
              err st ~line
                "'%s' is an interactive CLI command, not a configuration statement"
                (String.concat " " toks)
            else handle_bgp_line st ~line toks
        | In_ospf, true -> handle_ospf_line st ~line toks
        | In_route_map stanza, true -> handle_route_map_line st ~line stanza toks
        | In_acl name, true -> handle_acl_line st ~line name toks)
    lines;
  freeze st ~newlines:(List.length lines - 1)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Groups [(name, entry)] pairs (in input order) by name, keeping names in
   first-appearance order and each name's entries in input order. *)
let group_by_name pairs =
  let groups = Hashtbl.create 16 in
  let names =
    List.fold_left
      (fun names (n, e) ->
        match Hashtbl.find_opt groups n with
        | Some entries ->
            entries := e :: !entries;
            names
        | None ->
            Hashtbl.add groups n (ref [ e ]);
            n :: names)
      [] pairs
  in
  List.rev_map (fun n -> (n, List.rev !(Hashtbl.find groups n))) names

(* The IR of a whole text's piece. The checks across lines warn at line 0,
   after every line's diagnostics. *)
let assemble (p : Piece.t) =
  let extra = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> extra := Diag.warning ~line:0 s :: !extra) fmt in
  let prefix_lists =
    List.map
      (fun (name, entries) ->
        try Prefix_list.make name entries
        with Invalid_argument _ ->
          warn "prefix-list %s has duplicate sequence numbers" name;
          (* Keep the first entry for each sequence number. *)
          let seen = Hashtbl.create 16 in
          let first (e : Prefix_list.entry) =
            (not (Hashtbl.mem seen e.seq)) && (Hashtbl.add seen e.seq (); true)
          in
          Prefix_list.make name (List.filter first entries))
      (group_by_name (List.rev p.pl_entries))
  in
  let community_lists =
    List.map (fun (n, es) -> Community_list.make n es) (group_by_name (List.rev p.cl_entries))
  in
  let as_path_lists =
    List.map (fun (n, es) -> As_path_list.make n es) (group_by_name (List.rev p.al_entries))
  in
  let route_maps =
    List.map
      (fun (name, entries) -> Route_map.make name entries)
      (group_by_name (List.rev p.rm_entries))
  in
  let ospf_interfaces = Hashtbl.create 8 in
  List.iter
    (fun (oi : Config_ir.ospf_interface) -> Hashtbl.replace ospf_interfaces oi.iface oi)
    p.ospf_interfaces;
  (* Merge interface-level ospf costs into the ospf block. *)
  (match (p.ospf, List.rev p.ospf_costs) with
  | _, [] -> ()
  | None, _ :: _ -> warn "'ip ospf cost' configured but there is no 'router ospf' process"
  | Some _, costs ->
      List.iter
        (fun (iface, cost) ->
          set_ospf_iface ospf_interfaces iface (fun oi -> { oi with Config_ir.cost = Some cost }))
        costs);
  let neighbors = List.rev p.bgp_neighbors in
  (* Neighbors created by a non-remote-as command first. *)
  if Option.is_some p.bgp then
    List.iter
      (fun (n : Config_ir.neighbor) ->
        if n.remote_as <= 0 then
          warn "neighbor %s has no remote-as configured" (Ipv4.to_string n.addr))
      neighbors;
  let bgp =
    Option.map
      (fun (b : Config_ir.bgp) ->
        {
          b with
          Config_ir.networks = List.rev p.bgp_networks;
          neighbors;
          redistributions = List.rev p.bgp_redistributions;
        })
      p.bgp
  in
  let ospf =
    Option.map
      (fun (o : Config_ir.ospf) ->
        {
          o with
          Config_ir.networks = List.rev p.ospf_networks;
          interfaces =
            Hashtbl.fold (fun _ oi acc -> oi :: acc) ospf_interfaces []
            |> List.sort (fun (a : Config_ir.ospf_interface) (b : Config_ir.ospf_interface) ->
                   Iface.compare a.iface b.iface);
          redistributions = List.rev p.ospf_redistributions;
        })
      p.ospf
  in
  let acls = List.map (fun (n, es) -> Acl.make n es) (group_by_name (List.rev p.acl_entries)) in
  ( {
      Config_ir.hostname = Option.value p.hostname ~default:"router";
      interfaces = List.rev p.interfaces;
      prefix_lists;
      community_lists;
      as_path_lists;
      route_maps;
      acls;
      statics = List.rev p.statics;
      bgp;
      ospf;
    },
    List.rev_append p.diags (List.rev !extra) )

(* ------------------------------------------------------------------ *)
(* Block-incremental parsing                                           *)
(* ------------------------------------------------------------------ *)

(* A '!' line returns the line loop to top-level context, so a block (the
   lines up to and including the next '!' line) parses the same wherever it
   sits, apart from the state [Piece.shared] and [Piece.stanzas] name. Each
   block's piece is looked up by its text; a redraft re-parses only the
   blocks it changed. *)
module Blocks =
  Memo_table.Make
    (struct
      type t = string

      let equal = String.equal
      let hash = Hashtbl.hash (* covers every byte of a string *)
    end)
    (struct
      type t = Piece.t

      let max_entries = 4096
    end)

(* The index of the first '!' in [text] at or after [pos], or the length
   of [text]. A config has one '!' every few hundred bytes, so this tests
   eight bytes at a time for one equal to '!'. *)
let index_bang text pos =
  let n = String.length text in
  let rec bytes i = if i >= n || String.unsafe_get text i = '!' then i else bytes (i + 1) in
  let rec words i =
    if i + 8 > n then bytes i
    else
      let x = Int64.logxor (String.get_int64_le text i) 0x2121212121212121L in
      let has_zero_byte =
        Int64.logand (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
          0x8080808080808080L
      in
      if Int64.equal has_zero_byte 0L then words (i + 8) else bytes i
  in
  words pos

(* The blocks of [text] in order; each ends with its '!' line (the line
   loop's test: the line's trimmed form starts with '!'), so their
   concatenation is [text]. *)
let split_blocks text =
  let n = String.length text in
  let rec line_start i =
    i < 0
    ||
    match text.[i] with
    | '\n' -> true
    | ' ' | '\t' | '\r' | '\012' -> line_start (i - 1)
    | _ -> false
  in
  let rec go start pos acc =
    let i = index_bang text pos in
    if i >= n then List.rev (if n > start then String.sub text start (n - start) :: acc else acc)
    else if line_start (i - 1) then
      let stop = match String.index_from_opt text i '\n' with Some e -> e + 1 | None -> n in
      go stop stop (String.sub text start (stop - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* Does a block touch state an earlier block touched? Then parsing it
   alone could differ from parsing it in place. *)
let shares_state pieces =
  let seen = Hashtbl.create 64 and maps = Hashtbl.create 64 in
  List.exists
    (fun (p : Piece.t) ->
      List.exists (fun k -> Hashtbl.mem seen k || (Hashtbl.add seen k (); false)) p.shared
      || List.exists
           (fun (name, seqs) ->
             match Hashtbl.find_opt maps name with
             | None ->
                 Hashtbl.add maps name seqs;
                 false
             | Some earlier ->
                 List.exists (fun s -> List.mem s earlier) seqs
                 || (Hashtbl.replace maps name (seqs @ earlier);
                     false))
           p.stanzas)
    pieces

let empty = freeze (fresh ()) ~newlines:0

(* Concatenates the pieces in text order, moving each block's diagnostics
   to its place in the text. *)
let merge pieces =
  let later some earlier = match some with Some _ -> some | None -> earlier in
  List.fold_left
    (fun (acc : Piece.t) (p : Piece.t) ->
      let offset = acc.newlines in
      {
        Piece.hostname = later p.hostname acc.hostname;
        interfaces = p.interfaces @ acc.interfaces;
        pl_entries = p.pl_entries @ acc.pl_entries;
        cl_entries = p.cl_entries @ acc.cl_entries;
        al_entries = p.al_entries @ acc.al_entries;
        rm_entries = p.rm_entries @ acc.rm_entries;
        acl_entries = p.acl_entries @ acc.acl_entries;
        statics = p.statics @ acc.statics;
        bgp = later p.bgp acc.bgp;
        bgp_networks = p.bgp_networks @ acc.bgp_networks;
        bgp_neighbors = p.bgp_neighbors @ acc.bgp_neighbors;
        bgp_redistributions = p.bgp_redistributions @ acc.bgp_redistributions;
        ospf = later p.ospf acc.ospf;
        ospf_networks = p.ospf_networks @ acc.ospf_networks;
        ospf_interfaces = p.ospf_interfaces @ acc.ospf_interfaces;
        ospf_redistributions = p.ospf_redistributions @ acc.ospf_redistributions;
        ospf_costs = p.ospf_costs @ acc.ospf_costs;
        diags =
          List.map (fun (d : Diag.t) -> { d with line = d.line + offset }) p.diags
          @ acc.diags;
        newlines = offset + p.newlines;
        shared = [];
        stanzas = [];
      })
    empty pieces

let parse_whole text = assemble (parse_lines text)

let parse text =
  let pieces =
    List.map (fun block -> Blocks.memo block (fun () -> parse_lines block)) (split_blocks text)
  in
  assemble (if shares_state pieces then parse_lines text else merge pieces)

let parse_clean text =
  match parse text with
  | ir, [] -> Ok ir
  | _, diags -> Error diags

let reset_cache () = Blocks.reset ()

let audit_cache () =
  Blocks.fold
    (fun block cached acc ->
      match acc with
      | Error _ -> acc
      | Ok n ->
          if parse_lines block = cached then Ok (n + 1)
          else Error (List.hd (String.split_on_char '\n' block)))
    (Ok 0)
