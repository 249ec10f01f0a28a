let digit ~upper c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' when not upper -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' when upper -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse ?(upper = false) ~digits s =
  if digits < 1 || digits > 16 || String.length s <> digits then None
  else
    String.fold_left
      (fun acc c ->
        match (acc, digit ~upper c) with
        | Some v, Some d -> Some (Int64.logor (Int64.shift_left v 4) (Int64.of_int d))
        | _ -> None)
      (Some 0L) s
