type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let number v =
  if not (Float.is_finite v) then invalid_arg "Report.number: not finite";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let object_line fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> string k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct ~attempted ~failed metrics =
  let metrics =
    List.map
      (fun m -> (m.name, object_line [ ("value", number m.value); ("unit", string m.unit_) ]))
      metrics
  in
  object_line
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", object_line metrics);
    ]
