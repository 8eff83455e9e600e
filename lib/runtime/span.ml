module Json = Statsutil.Json

type span = {
  name : string;
  domain : int;
  depth : int;
  t0 : int;
  t1 : int;
  wall0 : float;
  wall1 : float;
  seq : int;
}

type open_span = {
  o_name : string;
  o_t0 : int;
  o_wall0 : float;
  o_depth : int;
  o_seq : int;
}

type recorder = {
  (* Completed spans in completion order (reversed); [spans] re-sorts by
     [seq] so parents come back out before their children. *)
  mutable done_ : span list;
  mutable stack : open_span list;
  mutable next_seq : int;
  mutable domain : int;
  wall : bool;
  base : int;
}

let create ?(wall = false) ?(domain = 0) ?(base = 0) () =
  { done_ = []; stack = []; next_seq = 0; domain; wall; base }

let set_domain r d = r.domain <- d
let now_wall r = if r.wall then Unix.gettimeofday () else nan

let enter prof budget name =
  match prof with
  | None -> ()
  | Some r ->
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    r.stack <-
      {
        o_name = name;
        o_t0 = Budget.ticks budget;
        o_wall0 = now_wall r;
        o_depth = List.length r.stack;
        o_seq = seq;
      }
      :: r.stack

let exit prof budget =
  match prof with
  | None -> ()
  | Some r -> (
    match r.stack with
    | [] -> ()
    | o :: rest ->
      r.stack <- rest;
      r.done_ <-
        {
          name = o.o_name;
          domain = r.domain;
          depth = o.o_depth;
          t0 = o.o_t0;
          t1 = Budget.ticks budget;
          wall0 = o.o_wall0;
          wall1 = now_wall r;
          seq = o.o_seq;
        }
        :: r.done_)

let with_ prof budget name f =
  match prof with
  | None -> f ()
  | Some _ ->
    enter prof budget name;
    Fun.protect ~finally:(fun () -> exit prof budget) f

let leaf prof ~name ~t0 ~t1 =
  match prof with
  | None -> ()
  | Some r ->
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    r.done_ <-
      {
        name;
        domain = r.domain;
        depth = List.length r.stack;
        t0;
        t1;
        wall0 = nan;
        wall1 = nan;
        seq;
      }
      :: r.done_

let open_spans r = List.length r.stack

let by_seq a b = compare a.seq b.seq

let graft ~into ~at child =
  if child.stack <> [] then
    invalid_arg "Span.graft: child recorder has open spans";
  let delta = at - child.base in
  let depth_off = List.length into.stack in
  List.iter
    (fun s ->
      let seq = into.next_seq in
      into.next_seq <- seq + 1;
      into.done_ <-
        {
          s with
          depth = s.depth + depth_off;
          t0 = s.t0 + delta;
          t1 = s.t1 + delta;
          seq;
        }
        :: into.done_)
    (List.sort by_seq child.done_)

let spans r = List.sort by_seq r.done_

let total_ticks sl =
  List.fold_left
    (fun acc s -> if s.depth = 0 then acc + (s.t1 - s.t0) else acc)
    0 sl

(* --- aggregated phase tree -------------------------------------------- *)

type tree = {
  tree_name : string;
  total : int;
  self : int;
  calls : int;
  tree_wall : float;
  children : tree list;
}

type node = {
  nd_name : string;
  mutable nd_total : int;
  mutable nd_calls : int;
  mutable nd_wall : float;
  mutable nd_children : node list; (* reverse first-entry order *)
}

let tree_of sl =
  let sorted = List.sort by_seq sl in
  let root =
    { nd_name = ""; nd_total = 0; nd_calls = 0; nd_wall = nan;
      nd_children = [] }
  in
  (* Innermost-first path through the node forest; the synthetic [root]
     stays at the bottom, so a span at depth [d] attaches to the node at
     stack position [d] once the stack is cut back to length [d + 1]. *)
  let stack = ref [ root ] in
  let rec cut_to n l = if List.length l > n then cut_to n (List.tl l) else l in
  List.iter
    (fun s ->
      let st = cut_to (s.depth + 1) !stack in
      let parent = List.hd st in
      let n =
        match
          List.find_opt (fun n -> n.nd_name = s.name) parent.nd_children
        with
        | Some n -> n
        | None ->
          let n =
            { nd_name = s.name; nd_total = 0; nd_calls = 0; nd_wall = nan;
              nd_children = [] }
          in
          parent.nd_children <- n :: parent.nd_children;
          n
      in
      n.nd_total <- n.nd_total + (s.t1 - s.t0);
      n.nd_calls <- n.nd_calls + 1;
      let dw = s.wall1 -. s.wall0 in
      if Float.is_finite dw then
        n.nd_wall <-
          (if Float.is_nan n.nd_wall then dw else n.nd_wall +. dw);
      stack := n :: st)
    sorted;
  let rec convert n =
    let children = List.map convert (List.rev n.nd_children) in
    let kids_total = List.fold_left (fun a c -> a + c.total) 0 children in
    {
      tree_name = n.nd_name;
      total = n.nd_total;
      self = n.nd_total - kids_total;
      calls = n.nd_calls;
      tree_wall = n.nd_wall;
      children;
    }
  in
  List.map convert (List.rev root.nd_children)

let rec sum_self trees =
  List.fold_left (fun acc t -> acc + t.self + sum_self t.children) 0 trees

let render_tree ?rate trees =
  let grand = List.fold_left (fun a t -> a + t.total) 0 trees in
  let denom = if grand = 0 then 1.0 else float_of_int grand in
  let rec name_width indent t =
    List.fold_left
      (fun acc c -> max acc (name_width (indent + 2) c))
      (indent + String.length t.tree_name)
      t.children
  in
  let name_w =
    List.fold_left
      (fun acc t -> max acc (name_width 0 t))
      (String.length "phase") trees
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %14s %6s %14s %6s %7s%s\n" name_w "phase" "total"
       "%" "self" "%" "calls"
       (match rate with Some _ -> Printf.sprintf " %10s" "total(s)" | None -> ""));
  let rec line indent t =
    let pct x = 100.0 *. float_of_int x /. denom in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %14d %5.1f%% %14d %5.1f%% %7d%s\n" name_w
         (String.make indent ' ' ^ t.tree_name)
         t.total (pct t.total) t.self (pct t.self) t.calls
         (match rate with
         | Some r -> Printf.sprintf " %10.4f" (float_of_int t.total /. r)
         | None -> ""));
    List.iter (line (indent + 2)) t.children
  in
  List.iter (line 0) trees;
  Buffer.contents buf

let domain_ticks sl =
  let tbl = Hashtbl.create 8 in
  let add d ticks =
    match Hashtbl.find_opt tbl d with
    | Some r -> r := !r + ticks
    | None -> Hashtbl.replace tbl d (ref ticks)
  in
  (* Stack walk in entry order: when a span pops, its duration minus its
     children's durations is its self time, attributed to its domain. *)
  let stack : (span * int ref) list ref = ref [] in
  let pop_one () =
    match !stack with
    | [] -> ()
    | (s, kids) :: rest ->
      add s.domain (s.t1 - s.t0 - !kids);
      (match rest with
      | (_, pkids) :: _ -> pkids := !pkids + (s.t1 - s.t0)
      | [] -> ());
      stack := rest
  in
  let rec pop_to depth =
    match !stack with
    | (s, _) :: _ when s.depth >= depth ->
      pop_one ();
      pop_to depth
    | _ -> ()
  in
  List.iter
    (fun s ->
      pop_to s.depth;
      stack := (s, ref 0) :: !stack)
    (List.sort by_seq sl);
  pop_to 0;
  List.sort compare
    (Hashtbl.fold (fun d r acc -> (d, !r) :: acc) tbl [])

(* --- exporters -------------------------------------------------------- *)

let schema_version = 1
let schema_name = Printf.sprintf "tvnep-span/%d" schema_version

let min_t0 sl =
  List.fold_left (fun acc s -> min acc s.t0) max_int sl

let to_chrome ?(rate = 1.0) sl =
  let sorted = List.sort by_seq sl in
  let origin = if sorted = [] then 0 else min_t0 sorted in
  let us ticks = float_of_int ticks /. rate *. 1e6 in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.Str s.name);
            ("ph", Json.Str "X");
            ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int s.domain));
            ("ts", Json.Num (us (s.t0 - origin)));
            ("dur", Json.Num (us (s.t1 - s.t0)));
            ( "args",
              Json.Obj
                [
                  ("t0", Json.Num (float_of_int s.t0));
                  ("t1", Json.Num (float_of_int s.t1));
                  ("depth", Json.Num (float_of_int s.depth));
                  ("seq", Json.Num (float_of_int s.seq));
                ] );
          ])
      sorted
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("schema", Json.Str schema_name);
            ("schema_version", Json.Num (float_of_int schema_version));
            ("rate", Json.Num rate);
          ] );
    ]

let to_jsonl ?(rate = 1.0) sl =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Json.to_compact_string
       (Json.Obj
          [
            ("schema", Json.Str schema_name);
            ("schema_version", Json.Num (float_of_int schema_version));
            ("rate", Json.Num rate);
          ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      let wall =
        if Float.is_finite s.wall0 && Float.is_finite s.wall1 then
          [ ("wall0", Json.Num s.wall0); ("wall1", Json.Num s.wall1) ]
        else []
      in
      Buffer.add_string buf
        (Json.to_compact_string
           (Json.Obj
              ([
                 ("name", Json.Str s.name);
                 ("domain", Json.Num (float_of_int s.domain));
                 ("depth", Json.Num (float_of_int s.depth));
                 ("t0", Json.Num (float_of_int s.t0));
                 ("t1", Json.Num (float_of_int s.t1));
                 ("ticks", Json.Num (float_of_int (s.t1 - s.t0)));
               ]
              @ wall)));
      Buffer.add_char buf '\n')
    (List.sort by_seq sl);
  Buffer.contents buf
