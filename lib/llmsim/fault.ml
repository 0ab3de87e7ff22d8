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

let make class_ target = { class_; target }
let equal (a : t) b = a = b

let target_to_string = function
  | Whole_config -> "config"
  | Neighbor a -> "neighbor " ^ Ipv4.to_string a
  | Policy p -> "policy " ^ p
  | Policy_entry (p, s) -> Printf.sprintf "policy %s seq %d" p s
  | Interface i -> "interface " ^ Iface.cisco_name i
  | Named_list n -> "list " ^ n
  | Network p -> "network " ^ Prefix.to_string p

let to_string f =
  Printf.sprintf "%s@%s" (Error_class.to_string f.class_) (target_to_string f.target)

(* ------------------------------------------------------------------ *)
(* Opportunities                                                       *)
(* ------------------------------------------------------------------ *)

let neighbors (c : Config_ir.t) =
  match c.Config_ir.bgp with None -> [] | Some b -> b.Config_ir.neighbors

let has_ranged_entries (l : Prefix_list.t) =
  List.exists
    (fun (e : Prefix_list.entry) -> not (Prefix_range.is_exact e.Prefix_list.range))
    l.Prefix_list.entries

let med_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if List.exists (function Route_map.Set_med _ -> true | _ -> false) e.Route_map.sets
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

let community_match_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if
            List.exists
              (function Route_map.Match_community_list _ -> true | _ -> false)
              e.Route_map.matches
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

let additive_entries (c : Config_ir.t) =
  List.concat_map
    (fun (m : Route_map.t) ->
      List.filter_map
        (fun (e : Route_map.entry) ->
          if
            List.exists
              (function
                | Route_map.Set_community { additive = true; _ } -> true
                | _ -> false)
              e.Route_map.sets
          then Some (m.Route_map.name, e.Route_map.seq)
          else None)
        m.Route_map.entries)
    c.Config_ir.route_maps

(* Maps where the AND/OR confusion is expressible: at least two deny entries
   each matching a single community list. *)
let and_or_candidates (c : Config_ir.t) =
  List.filter_map
    (fun (m : Route_map.t) ->
      let single_community_denies =
        List.filter
          (fun (e : Route_map.entry) ->
            e.Route_map.action = Action.Deny
            && match e.Route_map.matches with
               | [ Route_map.Match_community_list _ ] -> true
               | _ -> false)
          m.Route_map.entries
      in
      if List.length single_community_denies >= 2 then Some m.Route_map.name else None)
    c.Config_ir.route_maps

let has_protocol_scoping (c : Config_ir.t) =
  List.exists
    (fun (m : Route_map.t) ->
      List.exists
        (fun (e : Route_map.entry) ->
          List.exists
            (function Route_map.Match_source_protocol _ -> true | _ -> false)
            e.Route_map.matches)
        m.Route_map.entries)
    c.Config_ir.route_maps

let ospf_interfaces (c : Config_ir.t) =
  match c.Config_ir.ospf with None -> [] | Some o -> o.Config_ir.interfaces

let acl_opportunities (c : Config_ir.t) =
  let f cls tgt = { class_ = cls; target = tgt } in
  List.concat_map
    (fun (a : Acl.t) ->
      List.concat_map
        (fun (e : Acl.entry) ->
          f Error_class.Acl_action_flipped (Policy_entry (a.Acl.name, e.Acl.seq))
          :: f Error_class.Acl_entry_dropped (Policy_entry (a.Acl.name, e.Acl.seq))
          ::
          (match e.Acl.dst_port with
          | Acl.Any_port -> []
          | Acl.Eq _ | Acl.Port_range _ ->
              [ f Error_class.Acl_wrong_port (Policy_entry (a.Acl.name, e.Acl.seq)) ]))
        a.Acl.entries)
    c.Config_ir.acls

let opportunities dialect (c : Config_ir.t) =
  let f cls tgt = { class_ = cls; target = tgt } in
  match dialect with
  | Junos_cfg ->
      (match c.Config_ir.bgp with
      | Some _ -> [ f Error_class.Missing_local_as Whole_config ]
      | None -> [])
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Missing_import_policy (Neighbor n.Config_ir.addr))
              n.Config_ir.import_policy)
          (neighbors c)
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Missing_export_policy (Neighbor n.Config_ir.addr))
              n.Config_ir.export_policy)
          (neighbors c)
      @ List.concat_map
          (fun (oi : Config_ir.ospf_interface) ->
            f Error_class.Ospf_cost_wrong (Interface oi.Config_ir.iface)
            :: (if oi.Config_ir.passive then
                  [ f Error_class.Ospf_passive_wrong (Interface oi.Config_ir.iface) ]
                else []))
          (ospf_interfaces c)
      @ List.map (fun (m, s) -> f Error_class.Wrong_med (Policy_entry (m, s))) (med_entries c)
      @ List.filter_map
          (fun (l : Prefix_list.t) ->
            if has_ranged_entries l then
              Some (f Error_class.Prefix_range_dropped (Named_list l.Prefix_list.name))
            else None)
          c.Config_ir.prefix_lists
      @ (if has_protocol_scoping c then
           [ f Error_class.Redistribution_unscoped Whole_config ]
         else [])
      @ acl_opportunities c
  | Cisco_cfg ->
      [ f Error_class.Cli_keywords Whole_config ]
      @ List.map
          (fun (m, s) -> f Error_class.Match_community_literal (Policy_entry (m, s)))
          (community_match_entries c)
      @ List.map
          (fun (m, s) -> f Error_class.Community_not_additive (Policy_entry (m, s)))
          (additive_entries c)
      @ List.filter_map
          (fun (n : Config_ir.neighbor) ->
            Option.map
              (fun _ -> f Error_class.Neighbor_outside_bgp (Neighbor n.Config_ir.addr))
              n.Config_ir.export_policy)
          (neighbors c)
      @ List.map (fun m -> f Error_class.And_or_confusion (Policy m)) (and_or_candidates c)
      @ (let with_imports =
           List.filter
             (fun (n : Config_ir.neighbor) -> n.Config_ir.import_policy <> None)
             (neighbors c)
         in
         if List.length with_imports >= 2 then
           [ f Error_class.Crossed_policy_attachment Whole_config ]
         else [])
      @ List.concat_map
          (fun (m : Route_map.t) ->
            let has_prepend =
              List.exists
                (fun (e : Route_map.entry) ->
                  List.exists
                    (function Route_map.Set_as_path_prepend _ -> true | _ -> false)
                    e.Route_map.sets)
                m.Route_map.entries
            in
            let has_denies =
              List.exists
                (fun (e : Route_map.entry) -> e.Route_map.action = Action.Deny)
                m.Route_map.entries
            in
            if not has_prepend then []
            else
              (if has_denies then
                 [ f Error_class.Policy_inserted_early (Policy m.Route_map.name) ]
               else [])
              @
              if List.length c.Config_ir.route_maps >= 2 then
                [ f Error_class.Wrong_policy_modified (Policy m.Route_map.name) ]
              else [])
          c.Config_ir.route_maps
      @ List.filter_map
          (fun (i : Config_ir.interface) ->
            Option.map
              (fun _ -> f Error_class.Wrong_interface_ip (Interface i.Config_ir.iface))
              i.Config_ir.address)
          c.Config_ir.interfaces
      @ (match c.Config_ir.bgp with
        | Some b ->
            [
              f Error_class.Wrong_local_as Whole_config;
              f Error_class.Extra_neighbor_decl Whole_config;
              f Error_class.Extra_network_decl Whole_config;
            ]
            @ (match b.Config_ir.router_id with
              | Some _ -> [ f Error_class.Wrong_router_id Whole_config ]
              | None -> [])
            @ List.map
                (fun (n : Config_ir.neighbor) ->
                  f Error_class.Missing_neighbor_decl (Neighbor n.Config_ir.addr))
                b.Config_ir.neighbors
            @ List.map
                (fun p -> f Error_class.Missing_network_decl (Network p))
                b.Config_ir.networks
        | None -> [])

(* ------------------------------------------------------------------ *)
(* IR corruption                                                       *)
(* ------------------------------------------------------------------ *)

let map_neighbor (c : Config_ir.t) addr g =
  match c.Config_ir.bgp with
  | None -> c
  | Some b ->
      let neighbors =
        List.map
          (fun (n : Config_ir.neighbor) ->
            if Ipv4.equal n.Config_ir.addr addr then g n else n)
          b.Config_ir.neighbors
      in
      { c with Config_ir.bgp = Some { b with Config_ir.neighbors } }

let map_bgp (c : Config_ir.t) g =
  match c.Config_ir.bgp with None -> c | Some b -> { c with Config_ir.bgp = Some (g b) }

let map_ospf_iface (c : Config_ir.t) iface g =
  match c.Config_ir.ospf with
  | None -> c
  | Some o ->
      let interfaces =
        List.map
          (fun (oi : Config_ir.ospf_interface) ->
            if Iface.equal oi.Config_ir.iface iface then g oi else oi)
          o.Config_ir.interfaces
      in
      { c with Config_ir.ospf = Some { o with Config_ir.interfaces } }

let map_route_map (c : Config_ir.t) name g =
  {
    c with
    Config_ir.route_maps =
      List.map
        (fun (m : Route_map.t) -> if m.Route_map.name = name then g m else m)
        c.Config_ir.route_maps;
  }

let map_entry (c : Config_ir.t) name seq g =
  map_route_map c name (fun m ->
      Route_map.make m.Route_map.name
        (List.map
           (fun (e : Route_map.entry) -> if e.Route_map.seq = seq then g e else e)
           m.Route_map.entries))

let apply_and_or_confusion (m : Route_map.t) =
  (* Merge all single-community deny entries into the first one (AND). *)
  let is_single_comm_deny (e : Route_map.entry) =
    e.Route_map.action = Action.Deny
    && match e.Route_map.matches with
       | [ Route_map.Match_community_list _ ] -> true
       | _ -> false
  in
  let denies, others = List.partition is_single_comm_deny m.Route_map.entries in
  match denies with
  | [] | [ _ ] -> m
  | first :: _ ->
      let all_matches = List.concat_map (fun (e : Route_map.entry) -> e.Route_map.matches) denies in
      let merged = { first with Route_map.matches = all_matches } in
      Route_map.make m.Route_map.name
        (List.sort
           (fun (a : Route_map.entry) b -> Int.compare a.Route_map.seq b.Route_map.seq)
           (merged :: others))

let extra_neighbor_addr (b : Config_ir.bgp) =
  let k = List.length b.Config_ir.neighbors + 1 in
  (Ipv4.of_octets (k land 0xFF) 0 0 2, k)

let apply_ir (c : Config_ir.t) (fault : t) =
  match (fault.class_, fault.target) with
  | Error_class.Missing_import_policy, Neighbor a ->
      map_neighbor c a (fun n -> { n with Config_ir.import_policy = None })
  | Error_class.Missing_export_policy, Neighbor a ->
      map_neighbor c a (fun n -> { n with Config_ir.export_policy = None })
  | Error_class.Ospf_cost_wrong, Interface i ->
      (* The translated metric is dropped, silently reverting to the Junos
         default — exactly the Table 1 cost example. *)
      map_ospf_iface c i (fun oi -> { oi with Config_ir.cost = None })
  | Error_class.Ospf_passive_wrong, Interface i ->
      map_ospf_iface c i (fun oi -> { oi with Config_ir.passive = not oi.Config_ir.passive })
  | Error_class.Wrong_med, Policy_entry (m, s) ->
      map_entry c m s (fun e ->
          {
            e with
            Route_map.sets =
              List.filter
                (function Route_map.Set_med _ -> false | _ -> true)
                e.Route_map.sets;
          })
  | Error_class.Prefix_range_dropped, Named_list n ->
      {
        c with
        Config_ir.prefix_lists =
          List.map
            (fun (l : Prefix_list.t) ->
              if l.Prefix_list.name = n then
                Prefix_list.make n
                  (List.map
                     (fun (e : Prefix_list.entry) ->
                       {
                         e with
                         Prefix_list.range =
                           Prefix_range.exact (Prefix_range.base e.Prefix_list.range);
                       })
                     l.Prefix_list.entries)
              else l)
            c.Config_ir.prefix_lists;
      }
  | Error_class.Redistribution_unscoped, Whole_config ->
      {
        c with
        Config_ir.route_maps =
          List.map
            (fun (m : Route_map.t) ->
              Route_map.make m.Route_map.name
                (List.map
                   (fun (e : Route_map.entry) ->
                     {
                       e with
                       Route_map.matches =
                         List.filter
                           (function
                             | Route_map.Match_source_protocol _ -> false
                             | _ -> true)
                           e.Route_map.matches;
                     })
                   m.Route_map.entries))
            c.Config_ir.route_maps;
      }
  | Error_class.Community_not_additive, Policy_entry (m, s) ->
      map_entry c m s (fun e ->
          {
            e with
            Route_map.sets =
              List.map
                (function
                  | Route_map.Set_community { communities; additive = true } ->
                      Route_map.Set_community { communities; additive = false }
                  | other -> other)
                e.Route_map.sets;
          })
  | Error_class.And_or_confusion, Policy m -> map_route_map c m apply_and_or_confusion
  | Error_class.Wrong_interface_ip, Interface i ->
      {
        c with
        Config_ir.interfaces =
          List.map
            (fun (x : Config_ir.interface) ->
              if Iface.equal x.Config_ir.iface i then
                match x.Config_ir.address with
                | Some (a, l) -> { x with Config_ir.address = Some (Ipv4.succ a, l) }
                | None -> x
              else x)
            c.Config_ir.interfaces;
      }
  | Error_class.Wrong_local_as, Whole_config ->
      map_bgp c (fun b -> { b with Config_ir.asn = b.Config_ir.asn + 2 })
  | Error_class.Wrong_router_id, Whole_config ->
      map_bgp c (fun b ->
          { b with Config_ir.router_id = Option.map Ipv4.succ b.Config_ir.router_id })
  | Error_class.Missing_neighbor_decl, Neighbor a ->
      map_bgp c (fun b ->
          {
            b with
            Config_ir.neighbors =
              List.filter
                (fun (n : Config_ir.neighbor) -> not (Ipv4.equal n.Config_ir.addr a))
                b.Config_ir.neighbors;
          })
  | Error_class.Extra_neighbor_decl, Whole_config ->
      map_bgp c (fun b ->
          let addr, asn = extra_neighbor_addr b in
          {
            b with
            Config_ir.neighbors =
              b.Config_ir.neighbors @ [ Config_ir.neighbor addr ~remote_as:asn ];
          })
  | Error_class.Missing_network_decl, Network p ->
      map_bgp c (fun b ->
          {
            b with
            Config_ir.networks = List.filter (fun x -> not (Prefix.equal x p)) b.Config_ir.networks;
          })
  | Error_class.Extra_network_decl, Whole_config ->
      map_bgp c (fun b ->
          let k = (List.length b.Config_ir.neighbors + 1) land 0xFF in
          {
            b with
            Config_ir.networks =
              b.Config_ir.networks @ [ Prefix.make (Ipv4.of_octets k 0 0 0) 24 ];
          })
  | Error_class.Policy_inserted_early, Policy name ->
      map_route_map c name (fun m ->
          (* Strip the prepend from its entry and re-insert it as a new
             permit term ahead of every existing stanza. *)
          let prepend = ref None in
          let stripped =
            List.map
              (fun (e : Route_map.entry) ->
                let sets =
                  List.filter
                    (function
                      | Route_map.Set_as_path_prepend asns ->
                          prepend := Some asns;
                          false
                      | _ -> true)
                    e.Route_map.sets
                in
                { e with Route_map.sets })
              m.Route_map.entries
          in
          match !prepend with
          | None -> m
          | Some asns ->
              let min_seq =
                List.fold_left
                  (fun acc (e : Route_map.entry) -> min acc e.Route_map.seq)
                  max_int stripped
              in
              let early =
                Route_map.entry
                  ~sets:[ Route_map.Set_as_path_prepend asns ]
                  (max 1 (min_seq - 5))
              in
              Route_map.make m.Route_map.name (early :: stripped))
  | Error_class.Wrong_policy_modified, Policy name ->
      (* Move the prepend actions to the alphabetically next route map. *)
      let prepends = ref [] in
      let stripped =
        map_route_map c name (fun m ->
            Route_map.make m.Route_map.name
              (List.map
                 (fun (e : Route_map.entry) ->
                   let sets =
                     List.filter
                       (function
                         | Route_map.Set_as_path_prepend asns ->
                             prepends := asns :: !prepends;
                             false
                         | _ -> true)
                       e.Route_map.sets
                   in
                   { e with Route_map.sets })
                 m.Route_map.entries))
      in
      let other =
        let names =
          List.sort String.compare
            (List.filter_map
               (fun (m : Route_map.t) ->
                 if m.Route_map.name = name then None else Some m.Route_map.name)
               c.Config_ir.route_maps)
        in
        List.find_opt (fun n -> n > name) names
        |> fun found -> (match (found, names) with Some n, _ -> Some n | None, n :: _ -> Some n | None, [] -> None)
      in
      (match (!prepends, other) with
      | asns :: _, Some other_name ->
          map_route_map stripped other_name (fun m ->
              match List.rev m.Route_map.entries with
              | last :: rest when last.Route_map.action = Action.Permit ->
                  Route_map.make m.Route_map.name
                    (List.rev
                       ({ last with
                          Route_map.sets =
                            last.Route_map.sets @ [ Route_map.Set_as_path_prepend asns ] }
                       :: rest))
              | _ -> m)
      | _ -> stripped)
  | Error_class.Acl_action_flipped, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.map
                     (fun (e : Acl.entry) ->
                       if e.Acl.seq = seq then
                         { e with Acl.action = Action.flip e.Acl.action }
                       else e)
                     a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Acl_entry_dropped, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.filter (fun (e : Acl.entry) -> e.Acl.seq <> seq) a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Acl_wrong_port, Policy_entry (name, seq) ->
      {
        c with
        Config_ir.acls =
          List.map
            (fun (a : Acl.t) ->
              if a.Acl.name = name then
                Acl.make name
                  (List.map
                     (fun (e : Acl.entry) ->
                       if e.Acl.seq = seq then
                         {
                           e with
                           Acl.dst_port =
                             (match e.Acl.dst_port with
                             | Acl.Eq p -> Acl.Eq ((p + 1) land 0xFFFF)
                             | Acl.Port_range (lo, hi) ->
                                 Acl.Port_range (lo, min 65535 (hi + 1))
                             | Acl.Any_port -> Acl.Any_port);
                         }
                       else e)
                     a.Acl.entries)
              else a)
            c.Config_ir.acls;
      }
  | Error_class.Crossed_policy_attachment, Whole_config ->
      map_bgp c (fun b ->
          let with_imports =
            List.filter
              (fun (n : Config_ir.neighbor) -> n.Config_ir.import_policy <> None)
              b.Config_ir.neighbors
          in
          match with_imports with
          | first :: second :: _ ->
              let swap (n : Config_ir.neighbor) =
                if Ipv4.equal n.Config_ir.addr first.Config_ir.addr then
                  { n with Config_ir.import_policy = second.Config_ir.import_policy }
                else if Ipv4.equal n.Config_ir.addr second.Config_ir.addr then
                  { n with Config_ir.import_policy = first.Config_ir.import_policy }
                else n
              in
              { b with Config_ir.neighbors = List.map swap b.Config_ir.neighbors }
          | _ -> b)
  (* Text-level faults: no IR change. *)
  | Error_class.Missing_local_as, _
  | Error_class.Bad_prefix_list_syntax, _
  | Error_class.Cli_keywords, _
  | Error_class.Match_community_literal, _
  | Error_class.Neighbor_outside_bgp, _ ->
      c
  (* Mis-targeted faults are ignored (total rendering). *)
  | _, _ -> c

(* ------------------------------------------------------------------ *)
(* Text corruption                                                     *)
(* ------------------------------------------------------------------ *)

let rec matches_at s i sub j =
  j = String.length sub || (s.[i + j] = sub.[j] && matches_at s i sub (j + 1))

(* Allocates nothing: it runs on every line of a text. *)
let contains ~sub s =
  let rec go i = i + String.length sub <= String.length s && (matches_at s i sub 0 || go (i + 1)) in
  go 0

(* [searcher sub s pos stop] is the first index in [pos, stop) at which
   [sub] occurs in [s], or -1. A Boyer-Moore-Horspool search: after a
   mismatch the window moves past the last occurrence in [sub] of its last
   character, which on a config text is most of [sub]'s length at a time.
   The shift table is built once per [searcher sub], not once per search. *)
let searcher sub =
  let m = String.length sub in
  let shift = Array.make 256 (max m 1) in
  for j = 0 to m - 2 do
    shift.(Char.code sub.[j]) <- m - 1 - j
  done;
  fun s pos stop ->
    let rec go i =
      if i + m > stop then -1
      else if matches_at s i sub 0 then i
      else go (i + shift.(Char.code s.[i + m - 1]))
    in
    go pos

let lines s = String.split_on_char '\n' s
let unlines l = String.concat "\n" l

(* The lines of [text] (split at '\n') with each line that holds the match
   [next pos] finds at or after [pos] kept, dropped or replaced as [edit]
   says, joined again by '\n' and followed by [tail ()]: what
   [List.filter_map] over the split lines gives, from one scan and one
   copy into a string of the final length. [edit] sees the line as
   [text]'s range [start, stop), in text order; [tail] is called after the
   last. *)
let edit_lines ?(tail = fun () -> "") text ~next ~edit =
  match next 0 with
  | -1 -> ( match tail () with "" -> text | t -> text ^ t)
  | first ->
      let n = String.length text in
      (* The result's pieces as (string, offset, length), last first. *)
      let pieces = ref [] and joined = ref false in
      let add s a b =
        if !joined then pieces := ("\n", 0, 1) :: !pieces;
        pieces := (s, a, b - a) :: !pieces;
        joined := true
      in
      (* [pos] starts a line, or is [n + 1] once the last line is done; [i]
         is the next match at or after it, or -1. *)
      let rec go pos i =
        if i < 0 then (if pos <= n then add text pos n)
        else begin
          let start =
            match String.rindex_from text i '\n' with j -> j + 1 | exception Not_found -> 0
          in
          let stop = match String.index_from text i '\n' with j -> j | exception Not_found -> n in
          (* The untouched lines before this one. *)
          if start > pos then add text pos (start - 1);
          (match edit start stop with
          | `Keep -> add text start stop
          | `Drop -> ()
          | `Replace line -> add line 0 (String.length line));
          go (stop + 1) (if stop + 1 > n then -1 else next (stop + 1))
        end
      in
      go 0 first;
      let t = tail () in
      let pieces = (t, 0, String.length t) :: !pieces in
      let len = List.fold_left (fun acc (_, _, l) -> acc + l) 0 pieces in
      let out = Bytes.create len in
      ignore
        (List.fold_left
           (fun stop (s, a, l) ->
             Bytes.blit_string s a out (stop - l) l;
             stop - l)
           len pieces);
      Bytes.unsafe_to_string out

let apply_missing_local_as text =
  let n = String.length text in
  (* Each needle's next match at or after [pos], searched again only once
     [pos] has passed the last one found: one scan of the text per needle. *)
  let next_of sub =
    let find = searcher sub and last = ref (-2) in
    fun pos ->
      if !last = -1 || !last >= pos then !last
      else begin
        last := find text pos n;
        !last
      end
  in
  let next_asn = next_of "autonomous-system" and next_local_as = next_of "local-as" in
  let next pos =
    let a = next_asn pos and b = next_local_as pos in
    if a < 0 then b else if b < 0 then a else min a b
  in
  edit_lines text ~next ~edit:(fun _ _ -> `Drop)

(* The first line citing the list's first prefix as a route filter becomes
   a reference to the list, the others go, and an invalid definition of the
   list is appended. *)
let apply_bad_prefix_list (correct : Config_ir.t) list_name text =
  match Config_ir.find_prefix_list correct list_name with
  | None | Some { Prefix_list.entries = []; _ } -> text
  | Some { Prefix_list.entries = e :: _; _ } ->
      let base = Prefix_range.base e.Prefix_list.range in
      let base_str = Prefix.to_string base in
      let find_marker = searcher ("route-filter " ^ base_str) in
      let replaced = ref false in
      let edit start _ =
        if !replaced then `Drop
        else begin
          replaced := true;
          (* Preserve indentation. *)
          let rec count i = if text.[i] = ' ' then count (i + 1) else i in
          `Replace (String.make (count start - start) ' ' ^ "prefix-list " ^ list_name ^ ";")
        end
      in
      let invalid_def () =
        Printf.sprintf "policy-options {\n    prefix-list %s {\n        %s-32;\n    }\n}\n"
          list_name base_str
      in
      edit_lines text
        ~next:(fun pos -> find_marker text pos (String.length text))
        ~edit ~tail:invalid_def

let apply_cli_keywords text =
  "configure terminal\n" ^ text ^ "end\nwrite memory\n"

(* Move the export attachment of [addr] out of the [router bgp] block: every
   line holding it is dropped and the first one is appended, unindented, at
   the end. *)
let apply_neighbor_outside_bgp addr text =
  let n = String.length text in
  let find_needle = searcher ("neighbor " ^ Ipv4.to_string addr ^ " route-map")
  and find_out = searcher " out" in
  let moved = ref None in
  let edit start stop =
    if find_out text start stop < 0 then `Keep
    else begin
      if !moved = None then moved := Some (String.trim (String.sub text start (stop - start)));
      `Drop
    end
  in
  let tail () = match !moved with None -> "" | Some line -> line ^ "\n" in
  edit_lines text ~next:(fun pos -> find_needle text pos n) ~edit ~tail

let apply_match_community_literal (correct : Config_ir.t) map_name seq text =
  (* Find the stanza header, then the first community match inside it, and
     replace the list reference with the literal community. The header's
     map name and seq are matched as whole tokens: a substring match would
     take [route-map X_R20 deny 30] for a stanza [X_R2 30]. *)
  let seq = string_of_int seq in
  let literal_of list_name =
    match Config_ir.find_community_list correct list_name with
    | Some { Community_list.entries = { Community_list.communities = c :: _; _ } :: _; _ } ->
        Community.to_string c
    | _ -> "100:1"
  in
  let rec go acc in_stanza done_ = function
    | [] -> List.rev acc
    | l :: rest ->
        let is_header = String.length l > 0 && l.[0] <> ' ' in
        let in_stanza =
          if is_header then
            match String.split_on_char ' ' l with
            | [ "route-map"; name; _; s ] -> name = map_name && s = seq
            | _ -> false
          else in_stanza
        in
        if (not done_) && in_stanza && contains ~sub:"match community " l then
          let toks = String.split_on_char ' ' (String.trim l) in
          match toks with
          | [ "match"; "community"; name ] ->
              go ((" match community " ^ literal_of name) :: acc) in_stanza true rest
          | _ -> go (l :: acc) in_stanza done_ rest
        else go (l :: acc) in_stanza done_ rest
  in
  unlines (go [] false false (lines text))

let apply_text (correct : Config_ir.t) text (fault : t) =
  match (fault.class_, fault.target) with
  | Error_class.Missing_local_as, _ -> apply_missing_local_as text
  | Error_class.Bad_prefix_list_syntax, Named_list n -> apply_bad_prefix_list correct n text
  | Error_class.Cli_keywords, _ -> apply_cli_keywords text
  | Error_class.Neighbor_outside_bgp, Neighbor a -> apply_neighbor_outside_bgp a text
  | Error_class.Match_community_literal, Policy_entry (m, s) ->
      apply_match_community_literal correct m s text
  | _ -> text

let is_text_fault (fault : t) =
  match fault.class_ with
  | Error_class.Missing_local_as | Error_class.Bad_prefix_list_syntax
  | Error_class.Cli_keywords | Error_class.Neighbor_outside_bgp
  | Error_class.Match_community_literal ->
      true
  | _ -> false

type cache = Cisco_cache of Cisco.Printer.cache | Junos_cache of Juniper.Printer.cache

let create_cache = function
  | Cisco_cfg -> Cisco_cache (Cisco.Printer.create_cache ())
  | Junos_cfg -> Junos_cache (Juniper.Printer.create_cache ())

let render ?cache dialect (correct : Config_ir.t) faults =
  let ir_faults, text_faults = List.partition (fun f -> not (is_text_fault f)) faults in
  let ir = List.fold_left apply_ir correct ir_faults in
  let text =
    match (dialect, cache) with
    | Cisco_cfg, Some (Cisco_cache cache) -> Cisco.Printer.print ~cache ir
    | Cisco_cfg, _ -> Cisco.Printer.print ir
    | Junos_cfg, Some (Junos_cache cache) -> Juniper.Printer.print ~cache ir
    | Junos_cfg, _ -> Juniper.Printer.print ir
  in
  List.fold_left (apply_text correct) text text_faults
