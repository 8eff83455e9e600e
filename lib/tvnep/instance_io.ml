exception Parse_error of int * string

let to_string inst =
  let buf = Buffer.create 4096 in
  let sub = inst.Instance.substrate in
  let sgraph = Substrate.graph sub in
  Buffer.add_string buf "tvnep 1\n";
  Buffer.add_string buf (Printf.sprintf "horizon %.17g\n" inst.Instance.horizon);
  Buffer.add_string buf
    (Printf.sprintf "substrate-nodes %d\n" (Substrate.num_nodes sub));
  for v = 0 to Substrate.num_nodes sub - 1 do
    Buffer.add_string buf
      (Printf.sprintf "node-cap %d %.17g\n" v (Substrate.node_cap sub v))
  done;
  List.iter
    (fun (e : Graphs.Digraph.edge) ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d %.17g\n" e.src e.dst
           (Substrate.link_cap sub e.id)))
    (Graphs.Digraph.edges sgraph);
  Array.iteri
    (fun req (r : Request.t) ->
      Buffer.add_string buf
        (Printf.sprintf "request %s duration %.17g window %.17g %.17g\n"
           r.Request.name r.Request.duration r.Request.start_min
           r.Request.end_max);
      let mapping = Instance.node_mapping inst req in
      for v = 0 to Request.num_vnodes r - 1 do
        match mapping with
        | Some hosts ->
          Buffer.add_string buf
            (Printf.sprintf "  vnode %d %.17g host %d\n" v
               r.Request.node_demand.(v) hosts.(v))
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "  vnode %d %.17g\n" v r.Request.node_demand.(v))
      done;
      List.iter
        (fun (e : Graphs.Digraph.edge) ->
          Buffer.add_string buf
            (Printf.sprintf "  vlink %d %d %.17g\n" e.src e.dst
               r.Request.link_demand.(e.id)))
        (Graphs.Digraph.edges r.Request.graph);
      Buffer.add_string buf "end\n")
    inst.Instance.requests;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

(* Every directive keeps its line, so a check made once the whole file
   is read still names the line it rejects. *)
type pending_request = {
  p_line : int;
  p_name : string;
  p_duration : float;
  p_start : float;
  p_end : float;
  mutable p_vnodes : (int * int * float * int option) list;
      (* line, id, demand, host *)
  mutable p_vlinks : (int * int * int * float) list;
      (* line, src, dst, demand *)
}

type parser_state = {
  mutable horizon : (int * float) option;
  mutable n_sub : (int * int) option;
  mutable node_caps : (int * int * float) list;  (* line, id, capacity *)
  mutable links : (int * int * int * float) list;
      (* line, src, dst, capacity *)
  mutable requests : pending_request list;  (* reversed *)
  mutable current : pending_request option;
  mutable version_seen : bool;
}

let fail line msg = raise (Parse_error (line, msg))

(* [at line f] is [f ()] with a constructor's [Invalid_argument]
   reported against [line]. *)
let at line f = try f () with Invalid_argument msg -> fail line msg

(* Finite only: the range checks of [Instance.make], [Substrate.make] and
   [Request.make] compare with [<]/[<=], which a nan passes silently. *)
let float_of line s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | Some _ -> fail line (Printf.sprintf "expected a finite number, got %S" s)
  | None -> fail line (Printf.sprintf "expected a number, got %S" s)

let int_of line s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail line (Printf.sprintf "expected an integer, got %S" s)

let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_line st lineno raw =
  let line =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  match tokenize line with
  | [] -> ()
  | tokens ->
    (match (st.current, tokens) with
    | _, [ "tvnep"; v ] ->
      if v <> "1" then fail lineno ("unsupported version " ^ v);
      st.version_seen <- true
    | None, [ "horizon"; h ] -> st.horizon <- Some (lineno, float_of lineno h)
    | None, [ "substrate-nodes"; n ] ->
      st.n_sub <- Some (lineno, int_of lineno n)
    | None, [ "node-cap"; v; c ] ->
      st.node_caps <-
        (lineno, int_of lineno v, float_of lineno c) :: st.node_caps
    | None, [ "link"; a; b; c ] ->
      st.links <-
        (lineno, int_of lineno a, int_of lineno b, float_of lineno c)
        :: st.links
    | None, [ "request"; name; "duration"; d; "window"; s; e ] ->
      st.current <-
        Some
          {
            p_line = lineno;
            p_name = name;
            p_duration = float_of lineno d;
            p_start = float_of lineno s;
            p_end = float_of lineno e;
            p_vnodes = [];
            p_vlinks = [];
          }
    | Some req, [ "vnode"; v; d ] ->
      req.p_vnodes <-
        (lineno, int_of lineno v, float_of lineno d, None) :: req.p_vnodes
    | Some req, [ "vnode"; v; d; "host"; h ] ->
      req.p_vnodes <-
        (lineno, int_of lineno v, float_of lineno d, Some (int_of lineno h))
        :: req.p_vnodes
    | Some req, [ "vlink"; a; b; d ] ->
      req.p_vlinks <-
        (lineno, int_of lineno a, int_of lineno b, float_of lineno d)
        :: req.p_vlinks
    | Some req, [ "end" ] ->
      st.requests <- req :: st.requests;
      st.current <- None
    | None, tok :: _ -> fail lineno ("unexpected directive " ^ tok)
    | Some _, tok :: _ ->
      fail lineno ("unexpected directive inside request: " ^ tok)
    | (None | Some _), [] -> ())

(* [line_of] the first of [items] on which [has] differs from the first
   item's, if any: where an all-or-nothing property breaks. *)
let first_mismatch has line_of items =
  match items with
  | [] -> None
  | x :: rest ->
    List.find_opt (fun y -> has y <> has x) rest |> Option.map line_of

let build_instance st =
  if not st.version_seen then fail 0 "missing 'tvnep 1' header";
  let horizon_line, horizon =
    match st.horizon with Some h -> h | None -> fail 0 "missing horizon"
  in
  let n_sub_line, n_sub =
    match st.n_sub with Some n -> n | None -> fail 0 "missing substrate-nodes"
  in
  let sgraph = at n_sub_line (fun () -> Graphs.Digraph.create n_sub) in
  let links = List.rev st.links in
  let link_caps =
    List.map
      (fun (line, a, b, c) ->
        if c < 0.0 then fail line "Substrate.make: negative capacity";
        let id =
          at line (fun () -> Graphs.Digraph.add_edge sgraph ~src:a ~dst:b)
        in
        (id, c))
      links
  in
  let node_cap = Array.make n_sub 0.0 in
  let first_line = Array.make n_sub 0 in
  List.iter
    (fun (line, v, c) ->
      if v < 0 || v >= n_sub then fail line "node-cap id out of range";
      if first_line.(v) > 0 then
        fail line
          (Printf.sprintf "node-cap %d repeated (first set on line %d)" v
             first_line.(v));
      if c < 0.0 then fail line "Substrate.make: negative capacity";
      first_line.(v) <- line;
      node_cap.(v) <- c)
    (List.rev st.node_caps);
  let link_cap = Array.make (List.length link_caps) 0.0 in
  List.iter (fun (id, c) -> link_cap.(id) <- c) link_caps;
  let substrate =
    at n_sub_line (fun () -> Substrate.make sgraph ~node_cap ~link_cap)
  in
  let pending = List.rev st.requests in
  let build_request p =
    let vnodes = List.rev p.p_vnodes in
    let n = List.length vnodes in
    List.iteri
      (fun expect (line, id, _, host) ->
        if id <> expect then
          fail line
            (Printf.sprintf "request %s: vnode ids must be 0..%d in order"
               p.p_name (n - 1));
        match host with
        | Some h when h < 0 || h >= n_sub ->
          fail line "Instance.make: mapped substrate node out of range"
        | _ -> ())
      vnodes;
    let graph = Graphs.Digraph.create n in
    let vlinks = List.rev p.p_vlinks in
    let link_demand =
      List.map
        (fun (line, a, b, d) ->
          if a = b then
            fail line
              (Printf.sprintf "Request.make %s: self-loop in virtual topology"
                 p.p_name);
          let id =
            at line (fun () -> Graphs.Digraph.add_edge graph ~src:a ~dst:b)
          in
          (id, d))
        vlinks
    in
    let node_demand =
      Array.of_list (List.map (fun (_, _, d, _) -> d) vnodes)
    in
    let ld = Array.make (List.length link_demand) 0.0 in
    List.iter (fun (id, d) -> ld.(id) <- d) link_demand;
    let request =
      at p.p_line (fun () ->
          Request.make ~name:p.p_name ~graph ~node_demand ~link_demand:ld
            ~duration:p.p_duration ~start_min:p.p_start ~end_max:p.p_end)
    in
    if horizon > 0.0 && request.Request.end_max > horizon +. 1e-9 then
      fail p.p_line
        (Printf.sprintf "Instance.make: request %s exceeds horizon" p.p_name);
    let hosted (_, _, _, h) = Option.is_some h in
    let mapping =
      match first_mismatch hosted (fun (line, _, _, _) -> line) vnodes with
      | Some line ->
        fail line (Printf.sprintf "request %s: partial host mapping" p.p_name)
      | None ->
        if List.for_all hosted vnodes then
          Some
            (Array.of_list (List.map (fun (_, _, _, h) -> Option.get h) vnodes))
        else None
    in
    (p, request, mapping)
  in
  let built = List.map build_request pending in
  let requests = Array.of_list (List.map (fun (_, r, _) -> r) built) in
  let node_mappings =
    let mapped (_, _, m) = Option.is_some m in
    match first_mismatch mapped (fun (p, _, _) -> p.p_line) built with
    | Some line -> fail line "either all requests carry host mappings or none"
    | None ->
      if List.for_all mapped built then
        Some (Array.of_list (List.map (fun (_, _, m) -> Option.get m) built))
      else None
  in
  at horizon_line (fun () ->
      Instance.make ?node_mappings ~substrate ~requests ~horizon ())

let of_string text =
  let st =
    {
      horizon = None;
      n_sub = None;
      node_caps = [];
      links = [];
      requests = [];
      current = None;
      version_seen = false;
    }
  in
  List.iteri
    (fun i line -> parse_line st (i + 1) line)
    (String.split_on_char '\n' text);
  (match st.current with
  | Some r ->
    fail r.p_line
      (Printf.sprintf "request %s not terminated by 'end'" r.p_name)
  | None -> ());
  build_instance st

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string inst))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      of_string text)
