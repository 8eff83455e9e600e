type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering -------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else if Float.is_nan x || Float.abs x = infinity then
    (* JSON has no NaN/Infinity; null is the conventional stand-in. *)
    "null"
  else Printf.sprintf "%.17g" x

let rec write buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rec write_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write_compact buf item)
      fields;
    Buffer.add_char buf '}'

let to_compact_string v =
  let buf = Buffer.create 256 in
  write_compact buf v;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Malformed of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Malformed (Printf.sprintf "%s at byte %d" msg cur.pos))

let peek cur =
  if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue_ = ref true in
  while !continue_ do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | _ -> continue_ := false
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

let parse_string_body cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'; advance cur
      | Some '\\' -> Buffer.add_char buf '\\'; advance cur
      | Some '/' -> Buffer.add_char buf '/'; advance cur
      | Some 'n' -> Buffer.add_char buf '\n'; advance cur
      | Some 'r' -> Buffer.add_char buf '\r'; advance cur
      | Some 't' -> Buffer.add_char buf '\t'; advance cur
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.text then
          fail cur "truncated \\u escape";
        let hex = String.sub cur.text cur.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?'  (* non-ASCII: placeholder *)
        | None -> fail cur "bad \\u escape");
        cur.pos <- cur.pos + 4
      | _ -> fail cur "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> fail cur (Printf.sprintf "bad number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string_body cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let items = ref [ parse_value cur ] in
      skip_ws cur;
      while peek cur = Some ',' do
        advance cur;
        items := parse_value cur :: !items;
        skip_ws cur
      done;
      expect cur ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let k = parse_string_body cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws cur;
      while peek cur = Some ',' do
        advance cur;
        fields := field () :: !fields;
        skip_ws cur
      done;
      expect cur '}';
      Obj (List.rev !fields)
    end
  | Some ('0' .. '9' | '-') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let cur = { text = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing garbage after value"
    else Ok v
  | exception Malformed msg -> Error msg

(* --- accessors -------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let field key doc =
  match member key doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let to_float = function Num x -> Some x | _ -> None

(* 2^(int_size - 1): every integral float in [-limit, limit) is an int. *)
let int_limit = Float.ldexp 1.0 (Sys.int_size - 1)

let to_int = function
  | Num x when Float.is_integer x && x >= -.int_limit && x < int_limit ->
    Ok (int_of_float x)
  | _ -> Error "expected an integer"

let to_list = function List items -> Some items | _ -> None

(* The writer renders non-finite floats as [null]; encode them as strings
   instead so values such as [bound = nan] or [gap = inf] decode back to
   exactly the value they were encoded from. *)
let of_float_exact f =
  if Float.is_finite f then Num f else Str (string_of_float f)

let to_float_exact = function
  | Num n -> Ok n
  | Str s -> (
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad float %S" s))
  | Null -> Ok nan
  | _ -> Error "expected a number"
