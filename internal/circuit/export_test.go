package circuit

// LoadColoredForced runs the colored direct-stamp assembly regardless of
// the profitability estimate, so tests can check it against the serial
// load on every circuit — including colorings Load itself would decline.
func (ws *Workspace) LoadColoredForced(x []float64, p LoadParams) { ws.loadColored(x, p) }
