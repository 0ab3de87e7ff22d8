open Netcore

type match_cond =
  | Match_prefix_list of string
  | Match_community_list of string
  | Match_as_path of string
  | Match_source_protocol of Route.source
  | Match_med of int
  | Match_tag of int

type set_action =
  | Set_med of int
  | Set_local_pref of int
  | Set_community of { communities : Community.t list; additive : bool }
  | Set_community_delete of string
  | Set_next_hop of Ipv4.t
  | Set_as_path_prepend of int list

type entry = {
  seq : int;
  action : Action.t;
  matches : match_cond list;
  sets : set_action list;
}

type t = { name : string; entries : entry list }

let make name entries =
  let entries = List.sort (fun a b -> Int.compare a.seq b.seq) entries in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a.seq = b.seq then
          invalid_arg
            (Printf.sprintf "Route_map.make: duplicate seq %d in %s" a.seq name);
        check rest
    | _ -> ()
  in
  check entries;
  { name; entries }

let entry ?(action = Action.Permit) ?(matches = []) ?(sets = []) seq =
  { seq; action; matches; sets }

let find_entry t seq = List.find_opt (fun e -> e.seq = seq) t.entries
let permit_all name = make name [ entry 10 ]
let deny_all name = make name [ entry ~action:Action.Deny 10 ]

let list_references t =
  List.concat_map
    (fun e ->
      List.filter_map
        (function
          | Match_prefix_list n -> Some (`Prefix_list, n)
          | Match_community_list n -> Some (`Community_list, n)
          | Match_as_path n -> Some (`As_path_list, n)
          | Match_source_protocol _ | Match_med _ | Match_tag _ -> None)
        e.matches
      @ List.filter_map
          (function Set_community_delete n -> Some (`Community_list, n) | _ -> None)
          e.sets)
    t.entries

let match_cond_to_string = function
  | Match_prefix_list n -> Printf.sprintf "match prefix-list %s" n
  | Match_community_list n -> Printf.sprintf "match community-list %s" n
  | Match_as_path n -> Printf.sprintf "match as-path %s" n
  | Match_source_protocol s -> Printf.sprintf "from protocol %s" (Route.source_to_string s)
  | Match_med m -> Printf.sprintf "match med %d" m
  | Match_tag t -> Printf.sprintf "match tag %d" t

let set_action_to_string = function
  | Set_med m -> Printf.sprintf "set med %d" m
  | Set_local_pref p -> Printf.sprintf "set local-preference %d" p
  | Set_community { communities; additive } ->
      Printf.sprintf "set community %s%s"
        (String.concat " " (List.map Community.to_string communities))
        (if additive then " additive" else "")
  | Set_community_delete n -> Printf.sprintf "set comm-list %s delete" n
  | Set_next_hop a -> Printf.sprintf "set next-hop %s" (Ipv4.to_string a)
  | Set_as_path_prepend asns ->
      Printf.sprintf "set as-path prepend %s"
        (String.concat " " (List.map string_of_int asns))

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "route-map %s:" t.name;
  List.iter
    (fun e ->
      Format.fprintf ppf "@ %s %d [%s] [%s]" (Action.to_string e.action) e.seq
        (String.concat "; " (List.map match_cond_to_string e.matches))
        (String.concat "; " (List.map set_action_to_string e.sets)))
    t.entries
