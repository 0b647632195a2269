package network

import (
	"encoding/json"
	"io"
)

// jsonNode, jsonRoad and jsonNetwork are the serialized forms written
// by WriteJSON. Junction link/phase tables are derived data and are not
// serialized.
type jsonNode struct {
	Kind string  `json:"kind"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Name string  `json:"name,omitempty"`
}

type jsonRoad struct {
	From     NodeID  `json:"from"`
	To       NodeID  `json:"to"`
	Heading  string  `json:"heading"`
	Length   float64 `json:"length_m"`
	Speed    float64 `json:"speed_mps"`
	Capacity int     `json:"capacity"`
	Name     string  `json:"name,omitempty"`
}

type jsonNetwork struct {
	Nodes []jsonNode `json:"nodes"`
	Roads []jsonRoad `json:"roads"`
	Mu    float64    `json:"mu,omitempty"`
}

// WriteJSON serializes the network topology. Service rates are assumed
// uniform; mu records the rate of the first link (1 if there are none).
func (n *Network) WriteJSON(w io.Writer) error {
	jn := jsonNetwork{Mu: 1}
	if len(n.Junctions) > 0 && len(n.Junctions[0].Links) > 0 {
		jn.Mu = n.Junctions[0].Links[0].Mu
	}
	for i := range n.Nodes {
		node := &n.Nodes[i]
		jn.Nodes = append(jn.Nodes, jsonNode{
			Kind: node.Kind.String(), X: node.X, Y: node.Y, Name: node.Name,
		})
	}
	for i := range n.Roads {
		r := &n.Roads[i]
		jn.Roads = append(jn.Roads, jsonRoad{
			From: r.From, To: r.To, Heading: r.Heading.String(),
			Length: r.Length, Speed: r.SpeedLimit, Capacity: r.Capacity, Name: r.Name,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jn)
}
