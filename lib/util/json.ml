(* The repo's one JSON codec: value type, compact printer, parser and the
   field accessors the protocol decoders use. Payloads only need objects,
   arrays, strings, numbers and booleans, so the codec stays small and
   self-contained. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let add_escaped buf s =
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
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* Integral values print as integers; anything else takes the shortest
   of 15, 16 or 17 significant digits that reads back bit-exactly. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let to_string (j : t) =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> str s
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          str k;
          Buffer.add_char buf ':';
          go x)
        l;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* Recursive-descent parser. Accepts exactly one value (surrounded by
   whitespace); raises [Parse_error] otherwise. *)
let of_string (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          (* Encode the BMP code point as UTF-8; surrogate pairs are not
             produced by this tool and are rejected. *)
          let v = hex4 () in
          if v >= 0xD800 && v <= 0xDFFF then fail "surrogate escapes unsupported"
          else if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else if v < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
        | _ -> fail "bad escape");
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> Num f
    | Some _ -> fail "number out of range"
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* Field accessors used by the decoders. *)
let mem key = function Obj l -> List.assoc_opt key l | _ -> None

(* A present field of the wrong type is an error even with a default. *)
let field kind get ?default key j =
  match (mem key j, default) with
  | None, Some d -> d
  | v, _ -> (
    match Option.bind v get with
    | Some x -> x
    | None -> raise (Parse_error (Printf.sprintf "missing %s field %S" kind key)))

let str_field = field "string" (function Str s -> Some s | _ -> None)
let int_field = field "int" (function Num f -> Some (int_of_float f) | _ -> None)
let float_field = field "number" (function Num f -> Some f | _ -> None)
let bool_field = field "bool" (function Bool b -> Some b | _ -> None)

let opt_int_field key j =
  match mem key j with Some (Num f) -> Some (int_of_float f) | _ -> None
