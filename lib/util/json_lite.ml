(* Minimal JSON reader/writer.

   The repository deliberately has no JSON dependency (DESIGN.md §5).
   Telemetry, the bench report and the campaign report write JSON by hand
   through [escape]; the lint report goes through [write], and the
   baseline gate uses the read side. It parses the full JSON grammar (objects, arrays,
   strings with escapes, numbers, booleans, null) but is tuned for small
   trusted inputs: the committed LINT_baseline.json, not network data. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- reading --------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> error cur (Printf.sprintf "expected %c, found %c" c c')
  | None -> error cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur ("expected " ^ word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
        | Some ('"' | '\\' | '/') as c ->
            advance cur;
            Buffer.add_char buf (Option.get c);
            go ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.src then error cur "truncated \\u escape";
            let hex = String.sub cur.src cur.pos 4 in
            cur.pos <- cur.pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> error cur "bad \\u escape"
            in
            (* Encode the code point as UTF-8 (enough for baseline text). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> error cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
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
  while (match peek cur with Some c when is_num_char c -> true | _ -> false) do
    advance cur
  done;
  let text = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error cur ("bad number: " ^ text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '"' -> Str (parse_string cur)
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          fields := (k, v) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; members ()
          | Some '}' -> advance cur
          | _ -> error cur "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value cur in
          items := v :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; elements ()
          | Some ']' -> advance cur
          | _ -> error cur "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> Num (parse_number cur)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then error cur "trailing garbage after value";
  v

let of_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* --- accessors ------------------------------------------------------- *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_int_opt = function Num f -> Some (int_of_float f) | _ -> None

(* --- writing --------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf
