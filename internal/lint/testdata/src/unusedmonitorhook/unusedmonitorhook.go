// Package hookfix plants empty sim.Monitor hooks on monitors that
// embed the interface and override single hooks; the clean twins
// consume the event, document the no-op, or are not hooks at all.
package hookfix

import "carsgo/internal/sim"

type emptyHook struct{ sim.Monitor }

func (emptyHook) WarpExit(gwid int) {} // want "empty WarpExit monitor hook swallows its event"

// Flush is not a sim.Monitor hook.
func (emptyHook) Flush() {}

type counting struct {
	sim.Monitor
	n int
}

func (m *counting) WarpExit(gwid int) { m.n++ }

type documented struct{ sim.Monitor }

func (documented) WarpExit(gwid int) {
	// Exits carry no state this monitor tracks.
}

// WarpExit is a free function that only shares a hook's name.
func WarpExit(gwid int) {}

type several struct{ sim.Monitor }

func (several) CallEnd(gwid, rfp, rsp int) {} // want "empty CallEnd monitor hook"

func (several) BlockRetire(sm, blockID int) {} // want "empty BlockRetire monitor hook"
