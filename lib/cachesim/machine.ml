type t = {
  machine_name : string;
  cpu_cycle_ns : float;
  l1 : Cachesim.level_config;
  l2 : Cachesim.level_config;
  l3 : Cachesim.level_config option;
  dram_ns : float;
}

let level name size block assoc lat : Cachesim.level_config =
  {
    level_name = name;
    size_bytes = size;
    block_bytes = block;
    associativity = assoc;
    latency_ns = lat;
  }

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* Associativities are not in Table 2; they are the documented
   geometries of the parts: UltraSPARC II has direct-mapped L1D and a
   direct-mapped external L2 (§5.2 "2M direct-mapped cache"); Katmai
   P-III has 4-way L1D and 4-way off-chip L2; Coppermine (P-IIIE) has
   4-way L1D and an 8-way on-die L2. *)

let ultra30 =
  {
    machine_name = "Sun ULTRA 30";
    cpu_cycle_ns = 3.7;
    l1 = level "L1" (kib 16) 64 1 6.0;
    l2 = level "L2" (mib 2) 64 1 33.0;
    l3 = None;
    dram_ns = 266.0;
  }

let ultra60 =
  {
    machine_name = "Sun ULTRA 60";
    cpu_cycle_ns = 2.2;
    l1 = level "L1" (kib 16) 64 1 4.0;
    l2 = level "L2" (mib 4) 64 1 22.0;
    l3 = None;
    dram_ns = 208.0;
  }

let pentium3 =
  {
    machine_name = "Pentium III";
    cpu_cycle_ns = 1.7;
    l1 = level "L1" (kib 16) 32 4 5.0;
    l2 = level "L2" (kib 512) 32 4 40.0;
    l3 = None;
    dram_ns = 142.0;
  }

let pentium3e =
  {
    machine_name = "Pentium IIIE";
    cpu_cycle_ns = 1.4;
    l1 = level "L1" (kib 16) 32 4 4.0;
    l2 = level "L2" (kib 256) 32 8 10.0;
    l3 = None;
    dram_ns = 113.0;
  }

(* A representative 2020s server core (Ice-Lake/Zen-4 class): three
   cache levels, a big shared L3, and a deep DRAM gap.  Not in Table 2
   — the A10 placement ablation uses it to show where hierarchical
   blocking pays on hardware two decades past the paper's. *)
let modern =
  {
    machine_name = "Modern server";
    cpu_cycle_ns = 0.3;
    l1 = level "L1" (kib 48) 64 12 1.2;
    l2 = level "L2" (mib 1 + kib 256) 64 10 4.0;
    l3 = Some (level "L3" (mib 24) 64 12 13.0);
    dram_ns = 80.0;
  }

let all = [ ultra30; ultra60; pentium3; pentium3e ]

(* [all] stays the Table-2 quartet (shape checks and exp tables depend
   on it); [by_name] also resolves the extra presets. *)
let named = all @ [ modern ]

let by_name s =
  let norm x =
    String.lowercase_ascii x
    |> String.to_seq
    |> Seq.filter (fun c -> c <> ' ' && c <> '-' && c <> '_')
    |> String.of_seq
  in
  let target = norm s in
  List.find_opt
    (fun m ->
      String.equal (norm m.machine_name) target
      || (String.equal target "ultra30" && m == ultra30)
      || (String.equal target "ultra60" && m == ultra60)
      || (String.equal target "pentium3" && m == pentium3)
      || (String.equal target "piii" && m == pentium3)
      || (String.equal target "pentium3e" && m == pentium3e)
      || (String.equal target "piiie" && m == pentium3e)
      || (String.equal target "modern" && m == modern))
    named

let preset_names = [ "ultra30"; "ultra60"; "pentium3"; "pentium3e"; "modern" ]

let of_name s =
  match by_name s with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown machine %S; valid: %s" s (String.concat ", " preset_names))

let to_config ?tlb m : Cachesim.config =
  let levels = match m.l3 with None -> [ m.l1; m.l2 ] | Some l3 -> [ m.l1; m.l2; l3 ] in
  { levels; dram_ns = m.dram_ns; tlb }

let default_tlb : Cachesim.tlb_config = { entries = 64; page_bytes = 8 * 1024; miss_ns = 80.0 }

let superpage_tlb : Cachesim.tlb_config =
  { entries = 64; page_bytes = 4 * 1024 * 1024; miss_ns = 80.0 }

let hugepage_tlb : Cachesim.tlb_config =
  { entries = 1024; page_bytes = 2 * 1024 * 1024; miss_ns = 25.0 }
