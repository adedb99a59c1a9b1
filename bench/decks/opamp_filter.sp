active low-pass filter with ideal-opamp VCVS stage
* Sallen-Key-style unity-gain stage: E1 models the op-amp follower.
V1 in 0 DC 0 AC 1 SIN(0 0.5 2k)
R1 in n1 10k
R2 n1 n2 10k
C1 n1 out 3.3n
C2 n2 0 1.5n
E1 out 0 n2 out 100k
.ac dec 10 10 1meg
.tran 5u 2m
.end
