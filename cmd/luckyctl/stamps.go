package main

// The offline `stamps` subcommand: replay a durable server's data
// directory through a real server automaton and print, per register,
// the installed ⟨seq, writer⟩ stamps a recovering server would hold —
// the multi-writer post-mortem companion to `luckyctl wal`. With
// contending writers the Writer component of each stamp names the
// identity that installed it, so a crashed node's directory answers
// "whose write won on this key" without a running cluster.

import (
	"flag"
	"fmt"
	"os"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/wire"
)

func runStamps(args []string) int {
	fs := flag.NewFlagSet("luckyctl stamps", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "luckyctl: stamps needs exactly one server data directory")
		return 2
	}
	dir := fs.Arg(0)
	st, err := os.Stat(dir)
	if err == nil && !st.IsDir() {
		err = fmt.Errorf("%s: not a directory", dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "luckyctl: stamps: %v\n", err)
		return 1
	}
	infos, err := storage.InspectDir(dir)
	if err == nil && len(infos) == 0 {
		err = fmt.Errorf("%s: no snapshot or log segments", dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "luckyctl: stamps: %v\n", err)
		return 1
	}

	// Replay through genuine server automata: keyed records build one
	// core register per key, unkeyed records (a single-register core
	// WAL) feed one bare register. Every server merge is a monotone
	// max-merge, so replaying snapshots then logs in name order —
	// duplicates included — converges on exactly the installed state a
	// recovering server would reach.
	ks := keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	var bare *core.Server
	records := 0
	for _, info := range infos {
		if info.BadMagic {
			fmt.Fprintf(os.Stderr, "luckyctl: stamps: %s: DAMAGED: %s\n", info.Path, info.Reason)
			return 1
		}
		if info.Truncated() {
			fmt.Fprintf(os.Stderr, "luckyctl: stamps: note: %s torn at byte %d (%s); trailing bytes hold only unacked records and are ignored, as recovery would\n",
				info.Path, info.Valid, info.Reason)
		}
		err := storage.DumpRecords(info.Path, func(_ int, _ int64, env wire.Envelope) error {
			records++
			if _, ok := env.Msg.(wire.Keyed); ok {
				ks.StepAppend(env.From, env.Msg, nil)
				return nil
			}
			if bare == nil {
				bare = core.NewServer()
			}
			bare.StepAppend(env.From, env.Msg, nil)
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyctl: stamps: %s: %v\n", info.Path, err)
			return 1
		}
	}

	registers := 0
	if bare != nil {
		printReg("(register)", bare)
		registers++
	}
	ks.RangeShard(0, func(key string, reg node.Automaton) {
		printReg(key, reg.(*core.Server))
		registers++
	})
	fmt.Printf("total: %d segments, %d records, %d registers\n", len(infos), records, registers)
	return 0
}

// printReg renders one register's installed pairs — pw (pre-written),
// w (written) and vw (the third write round's view-written field) —
// as ⟨seq.writer⟩ stamps plus the written value.
func printReg(key string, s *core.Server) {
	pw, w, vw := s.State()
	fmt.Printf("%s: pw=⟨%s⟩ w=⟨%s⟩ vw=⟨%s⟩ value=%q\n",
		key, pw.Stamp(), w.Stamp(), vw.Stamp(), string(w.Val))
}
