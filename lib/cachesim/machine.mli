(** Machine presets reproducing Table 2 of the paper.

    Four memory hierarchies measured with lmbench 1.9 in the paper:
    Sun Ultra 30, Sun Ultra 60, Pentium III and Pentium IIIE.  The
    experiments default to the Ultra 30, the machine the paper's
    evaluation ran on (296 MHz UltraSPARC II, 16 K L1, 2 M
    direct-mapped L2, 64-byte L2 blocks). *)

type t = {
  machine_name : string;
  cpu_cycle_ns : float;       (** CPU cycle time (Table 2 column 1). *)
  l1 : Cachesim.level_config;
  l2 : Cachesim.level_config;
  l3 : Cachesim.level_config option;
      (** Third cache level; [None] on the Table-2 machines. *)
  dram_ns : float;            (** Latency when the access misses the
                                  last cache level. *)
}

val ultra30 : t
val ultra60 : t
val pentium3 : t
val pentium3e : t

val modern : t
(** A representative 2020s server core (three cache levels, 24 MiB
    shared L3, ~80 ns DRAM).  Not part of Table 2 or {!val:all} — the
    node-placement ablation (A10) uses it to ask whether hierarchical
    blocking still pays on current hardware. *)

val all : t list
(** The four presets in Table 2 order ({!val:modern} is reachable only
    through {!val:by_name}). *)

val by_name : string -> t option
(** Case-insensitive lookup, e.g. ["ultra30"] or ["modern"]. *)

val preset_names : string list
(** The short names {!val:by_name} accepts for every preset. *)

val of_name : string -> (t, string) result
(** {!val:by_name} with an error message naming the valid presets, for
    command lines and environment variables. *)

val to_config : ?tlb:Cachesim.tlb_config -> t -> Cachesim.config
(** Build a simulator configuration: [\[l1; l2\]] (plus [l3] when
    present) with DRAM latency and an optional TLB. *)

val default_tlb : Cachesim.tlb_config
(** 64 entries, 8 KiB pages, 80 ns miss penalty — a typical late-90s
    data TLB, used by the superpage ablation (A5). *)

val superpage_tlb : Cachesim.tlb_config
(** Same TLB with 4 MiB superpages (§5.1's "effectively share one or
    two TLB entries"). *)

val hugepage_tlb : Cachesim.tlb_config
(** A modern 2 MiB-hugepage data TLB (1024 entries, 25 ns walk) to
    pair with {!val:modern}. *)
